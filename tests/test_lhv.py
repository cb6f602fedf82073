"""Tests for the hidden-variable model framework.

The derived expectations come from the closed-form quantum joint (the
reproducer's weights), Riemann sums (position-style marginals), and
enumeration of deterministic strategies (CHSH bounds).
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lhv_oracle
import polytope_oracle
from quantum_oracle import quantum_joint
from ttbell import lhv
from ttbell.chsh import ChshSettings, ladder_settings

TOL = 1e-12

PROBS = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def single_lambda_model(p1_plus, p2_plus):
    """Factorized model with one hidden state and constant responses."""
    lam = lhv.LambdaPoint(id=0, weight=1.0)
    return lhv_oracle.factorized_model(
        [lam],
        lambda A, a, l: p1_plus if A == 1 else 1.0 - p1_plus,
        lambda B, b, l: p2_plus if B == 1 else 1.0 - p2_plus,
    )


def asymmetric_general_model():
    """Two hidden states whose second response leans on the first outcome."""
    support = [lhv.LambdaPoint(0, 0.5), lhv.LambdaPoint(1, 0.5)]
    p1_plus = {0: 0.7, 1: 0.4}
    p2_plus = {(0, 1): 0.9, (0, -1): 0.2, (1, 1): 0.6, (1, -1): 0.3}

    def p1(A, a, lam):
        return p1_plus[lam.id] if A == 1 else 1.0 - p1_plus[lam.id]

    def p2(B, a, b, A, lam):
        v = p2_plus[(lam.id, A)]
        return v if B == 1 else 1.0 - v

    return lhv_oracle.general_model(support, p1, p2)


class TestConstruction:
    def test_empty_support_rejected(self):
        with pytest.raises(lhv.InvalidModelError):
            lhv_oracle.factorized_model([], lambda *a: 0.5, lambda *a: 0.5)

    def test_weights_must_sum_to_one(self):
        pts = [lhv.LambdaPoint(0, 0.5), lhv.LambdaPoint(1, 0.4)]
        with pytest.raises(lhv.InvalidModelError):
            lhv_oracle.factorized_model(pts, lambda *a: 0.5, lambda *a: 0.5)

    def test_negative_weight_rejected(self):
        pts = [lhv.LambdaPoint(0, 1.5), lhv.LambdaPoint(1, -0.5)]
        with pytest.raises(lhv.InvalidModelError):
            lhv_oracle.factorized_model(pts, lambda *a: 0.5, lambda *a: 0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(lhv.InvalidModelError):
            lhv_oracle.tabulated_factorized_model([bad, 1.0], {}, {})

    def test_response_out_of_range_rejected(self):
        m = single_lambda_model(0.5, 0.5)
        bad = lhv_oracle.factorized_model(
            m.support, lambda A, a, l: 1.2 if A == 1 else -0.2, lambda B, b, l: 0.5
        )
        with pytest.raises(lhv.InvalidModelError):
            lhv.average_over_lambda(bad, 0.0, 0.0)

    def test_response_sum_must_be_one(self):
        m = single_lambda_model(0.5, 0.5)
        bad = lhv_oracle.factorized_model(m.support, lambda A, a, l: 0.4, lambda B, b, l: 0.5)
        with pytest.raises(lhv.InvalidModelError):
            lhv.average_over_lambda(bad, 0.0, 0.0)


class TestPerLambda:
    """A one-state model's ensemble is its state; a state of a larger model
    is read off its columns by ``lhv_oracle.state_joint``."""

    def test_deterministic_state(self):
        m = single_lambda_model(1.0, 1.0)
        j, moments = lhv.average_over_lambda(m, 0.1, 0.2)
        assert j.pp == 1.0 and j.pm == j.mp == j.mm == 0.0
        assert (moments.mean_t1, moments.mean_t2, moments.correlator) == (1.0, 1.0, 1.0)

    def test_uniform_responses(self):
        m = single_lambda_model(0.5, 0.5)
        j, moments = lhv.average_over_lambda(m, 0.0, 0.0)
        for _, p in j.items():
            assert p == pytest.approx(0.25, abs=TOL)
        assert moments.mean_t1 == 0.0

    @given(PROBS, PROBS)
    def test_factorization_identity(self, p1, p2):
        m = single_lambda_model(p1, p2)
        _, moments = lhv.average_over_lambda(m, 0.3, 0.7)
        assert moments.correlator == pytest.approx(moments.mean_t1 * moments.mean_t2, abs=TOL)

    def test_general_model_stats_come_from_the_joint(self):
        # p1(+)=0.7, p2(+|+)=0.9, p2(+|-)=0.2: joint (.63, .07, .06, .24)
        j = lhv_oracle.state_joint(asymmetric_general_model(), 0.0, 0.0, 0)
        e1, e2, e12 = (j.pp + j.pm) - (j.mp + j.mm), (j.pp + j.mp) - (j.pm + j.mm), j.pp - j.pm - j.mp + j.mm
        assert e1 == pytest.approx(0.4, abs=TOL)
        assert e2 == pytest.approx((0.63 + 0.06) - (0.07 + 0.24), abs=TOL)
        assert e12 == pytest.approx(0.63 - 0.07 - 0.06 + 0.24, abs=TOL)
        assert abs(e12 - e1 * e2) > 0.5  # no factorization here

    def test_general_model_joint_uses_conditional_response(self):
        m = asymmetric_general_model()
        j = lhv_oracle.state_joint(m, 0.0, 0.0, 0)
        # p1(+)=0.7, p2(+|+)=0.9, p2(+|-)=0.2, enumerated by hand
        assert j.pp == pytest.approx(0.7 * 0.9, abs=TOL)
        assert j.pm == pytest.approx(0.7 * 0.1, abs=TOL)
        assert j.mp == pytest.approx(0.3 * 0.2, abs=TOL)
        assert j.mm == pytest.approx(0.3 * 0.8, abs=TOL)


class TestAverage:
    def test_ensemble_is_the_weighted_sum_of_state_joints_bitwise(self):
        # left to right from 0.0, as a Python loop over the states adds
        rng = np.random.default_rng(77)
        models = [lhv.random_factorized_model(rng, k, [0.2], [0.9]) for k in (1, 2, 5, 40)]
        models += [asymmetric_general_model(), lhv.position_style_model(33)]
        for m in models:
            expected = [0.0] * 4
            for k, w in enumerate(m.weights.tolist()):
                for i, p in enumerate(dataclasses.astuple(lhv_oracle.state_joint(m, 0.2, 0.9, k))):
                    expected[i] += w * p
            joint, _ = lhv.average_over_lambda(m, 0.2, 0.9)
            assert [p.hex() for p in dataclasses.astuple(joint)] == [p.hex() for p in expected]

    def test_single_state_average_is_the_state(self):
        m = single_lambda_model(0.8, 0.3)
        joint, moments = lhv.average_over_lambda(m, 0.1, 0.9)
        per = lhv_oracle.state_joint(m, 0.1, 0.9, 0)
        assert joint == per
        assert moments.mean_t1 == pytest.approx(0.6, abs=TOL)

    def test_reproducer_matches_quantum_at_own_settings(self):
        a, b = math.pi / 3, math.pi / 6
        m = lhv.fixed_setting_reproducer(a, b)
        joint, moments = lhv.average_over_lambda(m, a, b)
        expected = quantum_joint(a, b)
        for (A, B), p in expected.items():
            assert joint.prob(A, B) == pytest.approx(p, abs=TOL)
        assert moments.correlator == pytest.approx(math.cos(a - b), abs=TOL)

    def test_correlator_stays_in_range(self):
        m = lhv.position_style_model(101)
        for a, b in [(0.0, 0.0), (1.0, -0.5), (math.pi / 2, math.pi / 4)]:
            _, moments = lhv.average_over_lambda(m, a, b)
            assert -1.0 - TOL <= moments.correlator <= 1.0 + TOL


class TestReproducer:
    def test_deterministic_quantum_case_collapses_support(self):
        m = lhv.fixed_setting_reproducer(math.pi / 2, math.pi / 2)
        assert len(m.support) == 1
        assert m.support[0].weight == pytest.approx(1.0, abs=TOL)

    def test_equal_z_settings_gives_two_states(self):
        m = lhv.fixed_setting_reproducer(0.0, 0.0)
        assert len(m.support) == 2
        assert sorted(lam.weight for lam in m.support) == pytest.approx([0.5, 0.5], abs=TOL)

    def test_frozen_weights_from_closed_form(self):
        # weights are the four closed-form joint entries at (pi/3, pi/6)
        m = lhv.fixed_setting_reproducer(math.pi / 3, math.pi / 6)
        expected = sorted(p for _, p in quantum_joint(math.pi / 3, math.pi / 6).items())
        assert sorted(lam.weight for lam in m.support) == pytest.approx(expected, abs=TOL)
        assert max(lam.weight for lam in m.support) == pytest.approx(0.8705127018922194, abs=TOL)
        assert min(lam.weight for lam in m.support) == pytest.approx(0.0044872981077807, abs=1e-12)

    def test_reproduces_marginals_and_conditionals(self):
        a, b = 1.1, -0.4
        m = lhv.fixed_setting_reproducer(a, b)
        joint, _ = lhv.average_over_lambda(m, a, b)
        expected = quantum_joint(a, b)
        for A in (1, -1):
            assert joint.prob(A, 1) + joint.prob(A, -1) == pytest.approx(
                expected.prob(A, 1) + expected.prob(A, -1), abs=TOL
            )
        assert joint.prob(1, -1) / (joint.prob(1, 1) + joint.prob(1, -1)) == pytest.approx(
            expected.prob(1, -1) / (expected.prob(1, 1) + expected.prob(1, -1)), abs=TOL
        )


class TestPositionStyle:
    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            lhv.position_style_model(1)

    def test_marginal_at_balanced_angle_exact_for_even_grid(self):
        m = lhv.position_style_model(10)
        joint, _ = lhv.average_over_lambda(m, 0.0, 0.3)
        assert joint.prob(1, 1) + joint.prob(1, -1) == pytest.approx(0.5, abs=TOL)

    def test_marginal_converges_to_quantum(self):
        # Riemann-sum oracle: fraction of grid below (1 + sin a)/2
        n = 10000
        m = lhv.position_style_model(n)
        joint, _ = lhv.average_over_lambda(m, math.pi / 2, 0.0)
        p_plus = joint.prob(1, 1) + joint.prob(1, -1)
        assert p_plus == pytest.approx(1.0, abs=1.0 / n + 1e-9)
        for a in (0.4, -0.9):
            joint, _ = lhv.average_over_lambda(lhv.position_style_model(2000), a, 0.0)
            got = joint.prob(1, 1) + joint.prob(1, -1)
            assert got == pytest.approx(0.5 * (1 + math.sin(a)), abs=1.0 / 2000 + 1e-9)

    def test_per_lambda_chsh_bounded_for_every_state(self):
        m = lhv.position_style_model(64)
        s = ladder_settings(math.pi / 4)
        for lam in m.support:
            assert lhv.per_lambda_chsh(m, s, lam) <= 2.0 + TOL


class TestChshBounds:
    def test_deterministic_vertex_reaches_two(self):
        m = single_lambda_model(1.0, 1.0)
        s = ChshSettings(a=0.1, a_prime=0.2, b=0.3, b_prime=0.4)
        assert lhv.per_lambda_chsh(m, s, m.support[0]) == pytest.approx(2.0, abs=TOL)

    def test_unbiased_second_slot_gives_zero(self):
        m = single_lambda_model(1.0, 0.5)
        s = ChshSettings(a=0.1, a_prime=0.2, b=0.3, b_prime=0.4)
        assert lhv.per_lambda_chsh(m, s, m.support[0]) == pytest.approx(0.0, abs=TOL)

    def test_all_sixteen_deterministic_vertices_bounded(self):
        s = ChshSettings(a=0.0, a_prime=1.0, b=2.0, b_prime=3.0)
        for A_a in (1.0, 0.0):
            for A_ap in (1.0, 0.0):
                for B_b in (1.0, 0.0):
                    for B_bp in (1.0, 0.0):
                        lam = lhv.LambdaPoint(0, 1.0)
                        m = lhv_oracle.factorized_model(
                            [lam],
                            lambda A, a, l, pa=A_a, pap=A_ap: (
                                (pa if a == 0.0 else pap) if A == 1
                                else 1.0 - (pa if a == 0.0 else pap)
                            ),
                            lambda B, b, l, pb=B_b, pbp=B_bp: (
                                (pb if b == 2.0 else pbp) if B == 1
                                else 1.0 - (pb if b == 2.0 else pbp)
                            ),
                        )
                        assert lhv.per_lambda_chsh(m, s, lam) <= 2.0 + TOL

    def test_random_sweep_respects_bound(self):
        rng = np.random.default_rng(20240809)
        s = ladder_settings(math.pi / 4)
        t1 = [s.a, s.a_prime]
        t2 = [s.b, s.b_prime]
        worst = 0.0
        for _ in range(2000):
            m = lhv.random_factorized_model(rng, int(rng.integers(1, 4)), t1, t2)
            for lam in m.support:
                worst = max(worst, lhv.per_lambda_chsh(m, s, lam))
            worst = max(worst, lhv.averaged_chsh(m, s))
        assert worst <= 2.0 + TOL

    def test_general_model_unsupported(self):
        m = asymmetric_general_model()
        s = ladder_settings(0.5)
        with pytest.raises(lhv.UnsupportedModelError):
            lhv.per_lambda_chsh(m, s, m.support[0])

    def test_per_state_route_equals_per_lambda_route_bitwise(self):
        # per_state_chsh (the CLI's route) and per_lambda_chsh (one state at
        # a time) give the same float at every state
        rng = np.random.default_rng(4242)
        s = ladder_settings(math.pi / 4)
        t1, t2 = [s.a, s.a_prime], [s.b, s.b_prime]
        support = [lhv.LambdaPoint(k, 0.25) for k in range(4)]
        models = [
            lhv.random_factorized_model(rng, int(rng.integers(1, 8)), t1, t2) for _ in range(100)
        ] + [
            lhv.position_style_model(1000),
            lhv.fixed_setting_reproducer(0.9, 0.2),
            single_lambda_model(0.3, 0.8),
            lhv_oracle.factorized_model(
                support,
                lambda A, a, l: 0.5 * (1.0 + A * math.sin(a + l.id)),
                lambda B, b, l: 0.5 * (1.0 + B * math.cos(b * l.id)),
            ),
        ]
        for m in models:
            per_state = [v.hex() for v in lhv.per_state_chsh(m, s).tolist()]
            assert per_state == [lhv.per_lambda_chsh(m, s, lam).hex() for lam in m.support]


class TestIndependenceProperties:
    def test_factorized_t2_marginal_ignores_first_setting(self):
        rng = np.random.default_rng(99)
        angles_t1 = [0.0, 0.7]
        angles_t2 = [0.3]
        for _ in range(50):
            m = lhv.random_factorized_model(rng, 3, angles_t1, angles_t2)
            j0, _ = lhv.average_over_lambda(m, angles_t1[0], angles_t2[0])
            j1, _ = lhv.average_over_lambda(m, angles_t1[1], angles_t2[0])
            p0 = j0.prob(1, 1) + j0.prob(-1, 1)
            p1 = j1.prob(1, 1) + j1.prob(-1, 1)
            assert p0 == pytest.approx(p1, abs=TOL)

    def test_per_lambda_conditionals_ignore_first_outcome(self):
        rng = np.random.default_rng(123)
        m = lhv.random_factorized_model(rng, 4, [0.2], [0.9])
        for k in range(len(m.weights)):
            j = lhv_oracle.state_joint(m, 0.2, 0.9, k)
            p1_plus = j.pp + j.pm
            p1_minus = j.mp + j.mm
            if p1_plus > 0 and p1_minus > 0:
                assert j.pp / p1_plus == pytest.approx(j.mp / p1_minus, abs=1e-9)

    def test_quantum_contrast_second_marginal_shifts(self):
        # the quantum chain does depend on the first setting
        from quantum_oracle import marginal_t2

        assert marginal_t2(math.pi / 4, 0.0, 1) != marginal_t2(0.0, 0.0, 1)


class TestConsistencyChecks:
    def test_reproducer_passes_everything(self):
        m = lhv.fixed_setting_reproducer(math.pi / 3, math.pi / 6)
        report = lhv.verify_consistency(m, math.pi / 3, math.pi / 6)
        assert report.passed
        assert report.outcome_swap_symmetric
        assert report.mean_product_error <= TOL

    def test_asymmetric_general_model_breaks_swap_symmetry(self):
        m = asymmetric_general_model()
        report = lhv.verify_consistency(m, 0.0, 0.0)
        # enumeration oracle: build the mixed joint by hand and compare
        joint, _ = lhv.average_over_lambda(m, 0.0, 0.0)
        p1p = joint.pp + joint.pm
        p1m = joint.mp + joint.mm
        direct_gap = abs(joint.pm / p1p - joint.mp / p1m)
        assert direct_gap > 1e-3
        assert not report.outcome_swap_symmetric
        assert report.outcome_swap_error == pytest.approx(direct_gap, abs=TOL)
        # bookkeeping identities still hold for general models
        assert report.marginal_from_mean_error <= TOL
        assert report.conditional_moment_route_error <= TOL
        assert report.passed  # mean-product is not mandatory without symmetry

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_mandatory_checks_are_named_once(self, symmetric):
        report = lhv.ConsistencyReport(0.0, 0.0, 0.5, symmetric, 1.0)
        names = ["marginal_from_mean", "conditional_moment_route"]
        assert [name for name, _ in report.mandatory()] == names + ["mean_product"] * symmetric
        assert report.passed is not symmetric  # only a mandatory error of 1.0 fails

    def test_stochastic_factorized_models_pass(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = lhv.random_factorized_model(rng, int(rng.integers(1, 5)), [0.6], [1.2])
            report = lhv.verify_consistency(m, 0.6, 1.2)
            assert report.passed

    def test_tabulated_model_requires_known_angle(self):
        m = lhv_oracle.tabulated_factorized_model([1.0], {0: {0.5: 0.7}}, {0: {0.25: 0.4}})
        with pytest.raises(lhv.InvalidModelError):
            lhv.average_over_lambda(m, 0.5, 0.75)

    def test_model_conditional_requires_support(self):
        # A = -1 never happens, so no conditional on it is formed (no 0/0)
        m = single_lambda_model(1.0, 0.5)
        report = lhv.verify_consistency(m, 0.0, 0.0)
        assert report.conditional_moment_route_error == 0.0
        assert report.outcome_swap_error == 0.0 and report.passed

    def test_state_limit_holds_for_any_model(self):
        # verify_consistency refuses a model above MAX_GRID_SIZE states,
        # whether or not position_style_model built it
        k = lhv.MAX_GRID_SIZE + 1
        table = ([(0.0,)], np.arange(k), np.zeros(k, dtype=int), np.full(k, 0.5))
        m = lhv.flat_tabulated_model(lhv.FACTORIZED, np.full(k, 1.0 / k), table, table)
        with pytest.raises(ValueError, match=f"{k} hidden states, above the limit of {lhv.MAX_GRID_SIZE}"):
            lhv.verify_consistency(m, 0.0, 0.0)


# state counts on and either side of powers of two, where a blocked or
# pairwise sum over states would split differently from a left-to-right one
PAIR_SUM_SIZES = [1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 419, 511, 512, 513, 1023, 1024, 1025, 4095, 8193, 10_000]


def hexed(report):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)]


class TestPairSum:
    """Each outcome pair's ensemble sum over states, as ``verify_consistency``
    uses it, equals the state-by-state oracle sum bit for bit, and so does
    every field of the report."""

    @pytest.mark.parametrize("k", PAIR_SUM_SIZES)
    def test_verify_consistency_equals_oracle_copy(self, k, monkeypatch):
        models = [(lhv.random_factorized_model(np.random.default_rng(k), k, [0.6], [1.2]), 0.6, 1.2)]
        if k >= 2:
            models.append((lhv.position_style_model(k), -2.3, 0.77))
        for model, a, b in models:
            got = lhv.verify_consistency(model, a, b)
            with monkeypatch.context() as patch:
                patch.setattr(lhv, "average_over_lambda", lhv_oracle.average_over_lambda)
                want = lhv.verify_consistency(model, a, b)
            assert hexed(got) == hexed(want)
            assert hexed(lhv.average_over_lambda(model, a, b)[0]) == hexed(lhv_oracle.average_over_lambda(model, a, b)[0])


class TestColumnContract:
    """A model is evaluated one response column per setting over all states."""

    def test_columns_hold_both_outcomes_over_all_states(self):
        m = lhv_oracle.tabulated_factorized_model([0.25, 0.75], {0: {0.5: 0.2}, 1: {0.5: 1.0}}, {})
        plus, minus = m.t1_column(0.5)
        assert plus.tolist() == [0.2, 1.0]
        assert minus.tolist() == [1.0 - 0.2, 0.0]

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.2, 1.0 + 1e-9])
    def test_bad_table_entry_rejected_when_built(self, bad):
        with pytest.raises(lhv.InvalidModelError):
            lhv_oracle.tabulated_factorized_model([0.5, 0.5], {0: {0.1: 0.3}, 1: {0.1: bad}}, {})
        with pytest.raises(lhv.InvalidModelError):
            lhv_oracle.tabulated_general_model([1.0], {0: {0.1: 0.3}}, {0: {(0.1, 0.2, -1): bad}})

    def test_first_bad_entry_in_state_order_is_reported(self):
        # entries given out of state order; state 0's dust is clamped, and
        # of state 1's two bad entries the one at the first key is named
        keys = [(0.1,), (0.2,)]
        table = (keys, [1, 1, 0, 0], [1, 0, 0, 1], [2.0, float("nan"), 1.0 + 1e-13, 0.5])
        with pytest.raises(lhv.InvalidModelError) as err:
            lhv.flat_tabulated_model(lhv.FACTORIZED, [0.5, 0.5], table, ([], [], [], []))
        assert str(err.value) == "t1 table at (0.1,) for id 1 returned nan, outside [0, 1]"

    def test_table_above_the_cell_limit_is_refused_before_it_is_built(self):
        # 2**11 keys x 2**10 states is twice the limit: the table would be 16 MB
        keys = [(float(j),) for j in range(1 << 11)]
        table = (keys, [0], [0], [0.5])
        n = 1 << 10
        tracemalloc.start()
        try:
            with pytest.raises(lhv.InvalidModelError) as err:
                lhv.flat_tabulated_model(lhv.FACTORIZED, np.full(n, 1.0 / n), table, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"t1 table of {1 << 11} keys x {n} states, above the limit of {1 << 20} cells"
        assert peak < 1 << 20

    def test_rounding_dust_clamped_when_built(self):
        m = lhv_oracle.tabulated_factorized_model([1.0], {0: {0.1: 1.0 + 1e-13}}, {0: {0.2: -1e-13}})
        assert [c.tolist() for c in m.t1_column(0.1)] == [[1.0], [0.0]]
        assert [c.tolist() for c in m.t2_column(0.2)] == [[0.0], [1.0]]

    def test_dust_of_exactly_the_tolerance_clamped_on_both_sides(self):
        tol = lhv.RESPONSE_TOL
        m = lhv_oracle.tabulated_factorized_model([1.0], {0: {0.1: 1.0 + tol}}, {0: {0.2: -tol}})
        assert [c.tolist() for c in m.t1_column(0.1)] == [[1.0], [0.0]]
        assert [c.tolist() for c in m.t2_column(0.2)] == [[0.0], [1.0]]
        with pytest.raises(lhv.InvalidModelError, match=r"returned 1\.000000000002, outside \[0, 1\]"):
            lhv_oracle.tabulated_factorized_model([1.0], {0: {0.1: 1.0 + 2 * tol}}, {})

    @pytest.mark.parametrize("ids", [(1,), (0, 2), (1, 0)])
    def test_non_dense_ids_rejected(self, ids):
        support = [lhv.LambdaPoint(i, 1.0 / len(ids)) for i in ids]
        with pytest.raises(lhv.InvalidModelError):
            lhv_oracle.factorized_model(support, lambda A, a, l: 0.5, lambda B, b, l: 0.5)

    def test_support_is_derived_from_weights(self):
        m = lhv.random_factorized_model(np.random.default_rng(3), 3, [0.0], [1.0])
        assert [lam.id for lam in m.support] == [0, 1, 2]
        assert [lam.weight for lam in m.support] == m.weights.tolist()

    @pytest.mark.parametrize("k", [-1, -2, 2])
    def test_state_id_outside_the_model_is_refused(self, k):
        # a negative id must not answer for state K + id, nor id K raise a bare IndexError
        s = ChshSettings(a=0.0, a_prime=1.0, b=0.5, b_prime=1.5)
        m = lhv.random_factorized_model(np.random.default_rng(3), 2, [s.a, s.a_prime], [s.b, s.b_prime])
        with pytest.raises(lhv.InvalidModelError) as err:
            lhv.per_lambda_chsh(m, s, lhv.LambdaPoint(k, 0.5))
        assert str(err.value) == f"no hidden state with id {k}: ids run 0..1"

    def test_random_model_takes_one_draw_of_the_stream(self):
        # n * (1 + L1 + L2) doubles, the same ones in the same order as a
        # draw of the weights and then one of each slot's (state, angle)
        # table; of a repeated angle the last draw answers
        n, t1, t2 = 3, [0.2, 0.7, 0.2], [1.1, -0.4]
        rng, twin, ref = (np.random.default_rng(28) for _ in range(3))
        m = lhv.random_factorized_model(rng, n, t1, t2)
        twin.random(n * (1 + len(t1) + len(t2)))
        assert rng.bit_generator.state == twin.bit_generator.state
        raw = ref.random(n) + 1e-9
        weights = raw / raw.sum()
        assert [w.hex() for w in m.weights.tolist()] == [w.hex() for w in weights.tolist()]
        for column, angles in ((m.t1_column, t1), (m.t2_column, t2)):
            draw = ref.random((n, len(angles)))
            for angle in angles:
                plus = draw[:, max(j for j, x in enumerate(angles) if x == angle)].tolist()
                expected = [p.hex() for p in plus] + [(1.0 - p).hex() for p in plus]
                assert [v.hex() for v in column(angle).ravel().tolist()] == expected

    def test_untabulated_angle_raises_everywhere(self):
        m = lhv_oracle.tabulated_factorized_model([0.5, 0.5], {0: {0.5: 0.7}, 1: {0.5: 0.1}},
                                                  {0: {0.25: 0.4}, 1: {0.25: 0.9}})
        s = ChshSettings(a=0.5, a_prime=0.6, b=0.25, b_prime=0.25)
        for evaluate in (
            lambda: lhv.average_over_lambda(m, 0.6, 0.25),
            lambda: lhv.average_over_lambda(m, 0.5, 0.3),
            lambda: lhv.verify_consistency(m, 0.5, 0.3),
            lambda: lhv.averaged_chsh(m, s),
            lambda: lhv.per_state_chsh(m, s),
            lambda: lhv.per_lambda_chsh(m, s, m.support[0]),
        ):
            with pytest.raises(lhv.InvalidModelError):
                evaluate()

    def test_untabulated_angle_message(self):
        # state 1 has no response at a' = 0.6, so every message names it
        m = lhv_oracle.tabulated_factorized_model([0.5, 0.5], {0: {0.5: 0.7, 0.6: 0.2}, 1: {0.5: 0.1}},
                                                  {0: {0.25: 0.4}, 1: {0.25: 0.9}})
        s = ChshSettings(a=0.5, a_prime=0.6, b=0.25, b_prime=0.25)
        at_s = "ChshSettings(a=0.5, a_prime=0.6, b=0.25, b_prime=0.25)"
        for evaluate, where in (
            (lambda: lhv.averaged_chsh(m, s), at_s),
            (lambda: lhv.per_state_chsh(m, s), at_s),
            (lambda: lhv.average_over_lambda(m, 0.6, 0.25), "(a=0.6, b=0.25)"),
        ):
            with pytest.raises(lhv.InvalidModelError) as err:
                evaluate()
            assert str(err.value) == f"no response tabulated at {where} for id 1"

    def test_angle_within_tolerance_answers(self):
        m = lhv_oracle.tabulated_factorized_model([1.0], {0: {0.5: 0.7}}, {0: {0.25: 0.4}})
        assert lhv.average_over_lambda(m, 0.5 + 5e-10, 0.25 - 5e-10) == lhv.average_over_lambda(
            m, 0.5, 0.25
        )

    def test_states_with_different_angle_sets(self):
        # state 0 tabulates a = 0.2, state 1 does not; state 1 tabulates
        # b = 0.3 only to within the angle tolerance
        m = lhv_oracle.tabulated_factorized_model(
            [0.5, 0.5],
            {0: {0.1: 0.3, 0.2: 0.9}, 1: {0.1: 0.6}},
            {0: {0.3: 0.5}, 1: {0.3 + 5e-10: 0.25}},
        )
        joint = lhv_oracle.state_joint(m, 0.2, 0.3, 0)
        assert (joint.pp, joint.pm) == (0.9 * 0.5, 0.9 * 0.5)
        assert math.isnan(lhv_oracle.state_joint(m, 0.2, 0.3, 1).pp)
        with pytest.raises(lhv.InvalidModelError):
            lhv.average_over_lambda(m, 0.2, 0.3)
        joint, _ = lhv.average_over_lambda(m, 0.1, 0.3)
        assert joint.pp == 0.5 * (0.3 * 0.5) + 0.5 * (0.6 * 0.25)
        assert joint.mm == 0.5 * ((1.0 - 0.3) * 0.5) + 0.5 * ((1.0 - 0.6) * (1.0 - 0.25))

    def test_exact_key_wins_over_an_earlier_near_key(self):
        # state 0 tabulates b = 0.3 - 5e-10 and b = 0.3, both within the
        # angle tolerance of 0.3; state 1 only the first, so b = 0.3 is
        # answered key by key, not by the dict of complete keys
        m = lhv_oracle.tabulated_factorized_model(
            [0.5, 0.5], {0: {0.1: 0.5}, 1: {0.1: 0.5}},
            {0: {0.3 - 5e-10: 0.25, 0.3: 0.75}, 1: {0.3 - 5e-10: 0.125}},
        )
        assert m.t2_column(0.3)[0].tolist() == [0.75, 0.125]
        assert m.t2_column(0.3 - 5e-10)[0].tolist() == [0.25, 0.125]
        assert m.t2_column(0.3 + 2e-10)[0].tolist() == [0.25, 0.125]  # first near key, in key order
        assert np.isnan(m.t2_column(0.3 + 2e-9)[0]).all()


class TestFineStrategyWeights:
    """Fine's theorem for factorized models, without sampling: each state's
    four response probabilities give a product distribution over the
    deterministic strategies, and the ensemble's mixture of them reproduces
    the four ensemble correlators."""

    @pytest.mark.parametrize("n_lambda", [1, 2, 3, 7])
    def test_strategy_mixture_reproduces_correlators(self, n_lambda):
        from ttbell import polytope

        s = ladder_settings(math.pi / 4)
        rng = np.random.default_rng(1982 + n_lambda)
        for _ in range(50):
            m = lhv.random_factorized_model(rng, n_lambda, [s.a, s.a_prime], [s.b, s.b_prime])
            # P(outcome | state) of each slot setting, keyed by outcome
            slots = [
                {o: column[i].tolist() for i, o in enumerate((1, -1))}
                for column in (m.t1_column(s.a), m.t1_column(s.a_prime), m.t2_column(s.b), m.t2_column(s.b_prime))
            ]
            weights = {
                strategy: sum(
                    w * math.prod(slot[o][k] for slot, o in zip(slots, strategy))
                    for k, w in enumerate(m.weights.tolist())
                )
                for strategy in polytope.STRATEGIES
            }
            assert abs(math.fsum(weights.values()) - 1.0) <= TOL
            expected = [
                lhv.average_over_lambda(m, a, b)[1].correlator
                for a, b in ((s.a, s.b), (s.a, s.b_prime), (s.a_prime, s.b_prime), (s.a_prime, s.b))
            ]
            got = polytope_oracle.reconstruct_targets(weights)
            assert max(abs(x - y) for x, y in zip(got, expected)) <= TOL


def test_verify_consistency_memory_is_bounded():
    # O(K) memory: the columns and per-state joint entries at (a, b), a
    # traced peak of about 64 bytes per state at the state limit
    k = lhv.MAX_GRID_SIZE
    model = lhv.position_style_model(k)
    tracemalloc.start()
    try:
        lhv.verify_consistency(model, -2.3, 0.77)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * k, peak

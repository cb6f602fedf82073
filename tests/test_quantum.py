"""Unit and property tests for the sequential-measurement quantum model.

Derived expectations are frozen from independent oracles: the amplitude
composition checks the closed form, outcome sums check the marginals, and
the joint/marginal ratio checks the conditional.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import quantum_oracle as oracle
from ttbell import quantum as q

ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
TOL = 1e-12


class TestJoint:
    def test_both_along_preparation_axis(self):
        j = oracle.quantum_joint(math.pi / 2, math.pi / 2)
        assert j.pp == pytest.approx(1.0, abs=TOL)
        assert j.pm == j.mp == j.mm == 0.0

    def test_equal_z_settings_perfectly_correlated(self):
        j = oracle.quantum_joint(0.0, 0.0)
        assert j.pp == j.mm == pytest.approx(0.5, abs=TOL)
        assert j.pm == j.mp == 0.0

    def test_frozen_value_pi3_pi6(self):
        # (1/4)(1 + sqrt(3)/2)(1 - sqrt(3)/2) = 1/16, amplitude oracle agrees
        j = oracle.quantum_joint(math.pi / 3, math.pi / 6)
        assert j.pm == pytest.approx(1.0 / 16.0, abs=TOL)
        assert j.pm == pytest.approx(oracle.brute_joint(math.pi / 3, math.pi / 6, 1, -1), abs=TOL)

    @given(ANGLES, ANGLES)
    def test_modes_agree_and_normalize(self, a, b):
        """The closed form and the amplitude oracle agree, and each sums to 1."""
        closed = oracle.quantum_joint(a, b)
        amp = [oracle.brute_joint(a, b, *outs) for outs, _ in closed.items()]
        for (_, p_closed), p_amp in zip(closed.items(), amp):
            assert 0.0 <= p_closed <= 1.0
            assert p_closed == pytest.approx(p_amp, abs=TOL)
        assert sum(p for _, p in closed.items()) == pytest.approx(1.0, abs=TOL)
        assert sum(amp) == pytest.approx(1.0, abs=TOL)


class TestMarginalsAndConditionals:
    def test_marginal_t1_values(self):
        assert oracle.marginal_t1(0.0, 1) == 0.5
        assert oracle.marginal_t1(math.pi / 2, 1) == pytest.approx(1.0, abs=TOL)
        # brute-force B-sum oracle gives 0.75 at a = pi/6
        a = math.pi / 6
        bsum = sum(oracle.quantum_joint(a, 0.3).prob(1, B) for B in q.OUTCOMES)
        assert oracle.marginal_t1(a, 1) == pytest.approx(0.75, abs=TOL)
        assert oracle.marginal_t1(a, 1) == pytest.approx(bsum, abs=TOL)

    def test_marginal_t2_values(self):
        for b in (0.0, 1.0, -2.5):
            assert oracle.marginal_t2(0.0, b, 1) == 0.5
        assert oracle.marginal_t2(math.pi / 2, 0.0, 1) == pytest.approx(0.5, abs=TOL)
        # brute-force A-sum oracle gives 0.75 at (pi/4, 0)
        asum = sum(oracle.quantum_joint(math.pi / 4, 0.0).prob(A, 1) for A in q.OUTCOMES)
        assert oracle.marginal_t2(math.pi / 4, 0.0, 1) == pytest.approx(0.75, abs=TOL)
        assert oracle.marginal_t2(math.pi / 4, 0.0, 1) == pytest.approx(asum, abs=TOL)

    def test_marginal_t2_depends_on_first_setting(self):
        # the parameter-dependence witness: same (b, B), different a
        assert oracle.marginal_t2(math.pi / 4, 0.0, 1) == pytest.approx(0.75, abs=TOL)
        assert oracle.marginal_t2(0.0, 0.0, 1) == pytest.approx(0.5, abs=TOL)

    def test_conditional_values(self):
        a = 0.87
        assert oracle.conditional_t2(a, a, 1, 1) == pytest.approx(1.0, abs=TOL)
        assert oracle.conditional_t2(a, a + math.pi, 1, 1) == pytest.approx(0.0, abs=TOL)
        # ratio oracle: joint / marginal at (pi/3, 0), A=+1, B=-1 -> 1/4
        ratio = oracle.quantum_joint(math.pi / 3, 0.0).prob(1, -1) / oracle.marginal_t1(math.pi / 3, 1)
        assert oracle.conditional_t2(math.pi / 3, 0.0, 1, -1) == pytest.approx(0.25, abs=TOL)
        assert oracle.conditional_t2(math.pi / 3, 0.0, 1, -1) == pytest.approx(ratio, abs=TOL)

    def test_conditional_undefined_on_null_event(self):
        # sin(-pi/2) = -1 makes P(A=+1) vanish
        with pytest.raises(oracle.UndefinedConditionalError):
            oracle.conditional_t2(-math.pi / 2, 0.0, 1, 1)

    def test_outcomes_must_be_plus_or_minus_one(self):
        for evaluate in (
            lambda: oracle.marginal_t1(0.3, 0),
            lambda: oracle.marginal_t2(0.3, 0.1, 2),
            lambda: oracle.conditional_t2(0.3, 0.1, 0, 1),
            lambda: oracle.conditional_t2(0.3, 0.1, 1, -2),
            lambda: oracle.quantum_joint(0.3, 0.1).prob(1, 0),
        ):
            with pytest.raises(ValueError, match="must be \\+1 or -1"):
                evaluate()

    def test_conditional_depends_on_first_outcome(self):
        # outcome-dependence witness, any cos(a-b) != 0
        a, b = 0.7, 0.1
        assert oracle.conditional_t2(a, b, 1, 1) != oracle.conditional_t2(a, b, -1, 1)

    @given(ANGLES, ANGLES, st.sampled_from((1, -1)), st.sampled_from((1, -1)))
    def test_chain_rule(self, a, b, A, B):
        p1 = oracle.marginal_t1(a, A)
        if p1 == 0.0:
            return
        joint = oracle.quantum_joint(a, b).prob(A, B)
        assert joint == pytest.approx(p1 * oracle.conditional_t2(a, b, A, B), abs=TOL)

    @given(ANGLES, ANGLES, st.sampled_from((1, -1)), st.sampled_from((1, -1)))
    def test_conditional_symmetric_in_outcome_values(self, a, b, A, B):
        if oracle.marginal_t1(a, A) == 0.0 or oracle.marginal_t1(a, B) == 0.0:
            return
        assert oracle.conditional_t2(a, b, A, B) == pytest.approx(
            oracle.conditional_t2(a, b, B, A), abs=TOL
        )

    @given(ANGLES, ANGLES, st.sampled_from((1, -1)), st.sampled_from((1, -1)))
    def test_conditional_equals_repreparation_overlap(self, a, b, A, B):
        if oracle.marginal_t1(a, A) == 0.0:
            return
        reprep = oracle.overlap(oracle.spinor(a, A), oracle.spinor(b, B))
        assert oracle.conditional_t2(a, b, A, B) == pytest.approx(reprep, abs=TOL)


class TestCorrelatorAndMoments:
    def test_correlator_values(self):
        assert oracle.ideal_correlator(1.3, 1.3) == 1.0
        assert oracle.ideal_correlator(0.0, math.pi / 2) == pytest.approx(0.0, abs=TOL)
        # brute-force sum oracle at (pi/4, 0)
        s = sum(A * B * p for (A, B), p in oracle.quantum_joint(math.pi / 4, 0.0).items())
        assert oracle.ideal_correlator(math.pi / 4, 0.0) == pytest.approx(0.70710678, abs=1e-8)
        assert oracle.ideal_correlator(math.pi / 4, 0.0) == pytest.approx(s, abs=TOL)

    @given(ANGLES, ANGLES)
    def test_correlator_equals_outcome_sum(self, a, b):
        s = sum(A * B * p for (A, B), p in oracle.quantum_joint(a, b).items())
        assert oracle.ideal_correlator(a, b) == pytest.approx(s, abs=TOL)

    def test_conditional_from_moments_cases(self):
        perfect = q.Moments(mean_t1=0.0, mean_t2=0.0, correlator=1.0)
        assert oracle.conditional_from_moments(perfect, 1, 1) == pytest.approx(1.0, abs=TOL)
        flat = q.Moments(mean_t1=0.0, mean_t2=0.0, correlator=0.0)
        for A in q.OUTCOMES:
            for B in q.OUTCOMES:
                assert oracle.conditional_from_moments(flat, A, B) == 0.5

    def test_conditional_from_moments_matches_quantum(self):
        m = oracle.quantum_moments(math.pi / 3, 0.0)
        assert oracle.conditional_from_moments(m, 1, -1) == pytest.approx(0.25, abs=TOL)

    @given(ANGLES, ANGLES, st.sampled_from((1, -1)), st.sampled_from((1, -1)))
    @example(4.71875, 1.0, 1, 1)  # weight 2.0e-5: the routes differ by 1.15e-12
    def test_moment_route_reproduces_conditional(self, a, b, A, B):
        m = oracle.quantum_moments(a, b)
        weight = 1.0 + A * m.mean_t1
        # skip the near-singular conditioning region, where the divided form
        # legitimately loses absolute precision
        if weight <= 1e-6:
            return
        # With s = sin(a) and c = cos(a - b) the same floats on both routes,
        # (B*s*c + A*B*c) / (1 + A*s) is A*B*c exactly, so only roundings
        # differ.  Rounding s*c (|s*c| < 1) errs by at most eps/4, which the
        # division by the weight and the factor 1/2 turn into eps/(8*weight)
        # in P; every other rounding is relative and well within TOL.  The
        # bound allows eps/weight, eight times that.
        bound = TOL + sys.float_info.epsilon / weight
        assert oracle.conditional_from_moments(m, A, B) == pytest.approx(
            oracle.conditional_t2(a, b, A, B), abs=bound
        )

    def test_conditional_from_moments_rejects_null_denominator(self):
        degenerate = q.Moments(mean_t1=-1.0, mean_t2=0.0, correlator=0.0)
        with pytest.raises(oracle.UndefinedConditionalError):
            oracle.conditional_from_moments(degenerate, 1, 1)

    def test_t2_mean_identity_examples(self):
        lhs, rhs = oracle.t2_mean_identity(0.0, 0.42)
        assert lhs == pytest.approx(0.0, abs=TOL) and rhs == pytest.approx(0.0, abs=TOL)
        lhs, rhs = oracle.t2_mean_identity(math.pi / 2, math.pi / 2)
        assert lhs == pytest.approx(1.0, abs=TOL) and rhs == pytest.approx(1.0, abs=TOL)
        lhs, rhs = oracle.t2_mean_identity(math.pi / 3, math.pi / 6)
        assert lhs == pytest.approx(0.75, abs=TOL)
        assert rhs == pytest.approx(0.75, abs=TOL)

    @given(ANGLES, ANGLES)
    def test_t2_mean_identity_everywhere(self, a, b):
        lhs, rhs = oracle.t2_mean_identity(a, b)
        assert lhs == pytest.approx(rhs, abs=TOL)


class TestColumns:
    @pytest.mark.parametrize("a", [math.pi / 2, -math.pi / 2])
    def test_rows_at_a_null_first_outcome(self, a):
        # one first outcome has P(A | a) = 0; its conditional is still the formula's value
        b = 0.3
        joint, p_t1, p_t2, cond = q.probability_columns(math.sin(a), math.cos(a - b), *q.ROW_OUTCOMES)
        rows = list(zip(*q.ROW_OUTCOMES.tolist()))
        closed = oracle.quantum_joint(a, b)
        assert rows == [outcomes for outcomes, _ in closed.items()]
        assert joint.tolist() == [p for _, p in closed.items()]
        assert p_t1.tolist() == [oracle.marginal_t1(a, A) for A, _ in rows]
        assert p_t2.tolist() == [oracle.marginal_t2(a, b, B) for _, B in rows]
        assert 0.0 in p_t1.tolist()
        assert cond.tolist() == [0.5 * (1.0 + A * B * math.cos(a - b)) for A, B in rows]


class TestClamp:
    def test_clamps_edge_noise(self):
        assert oracle.clamp_probability(-0.5e-12) == 0.0
        assert oracle.clamp_probability(1.0 + 0.5e-12) == 1.0
        assert oracle.clamp_probability(0.3) == 0.3

    def test_rejects_real_excursions(self):
        with pytest.raises(ValueError):
            oracle.clamp_probability(-1e-9)
        with pytest.raises(ValueError):
            oracle.clamp_probability(1.0 + 1e-9)

    def test_array_clamp_matches_scalar(self):
        # the tolerance's ends, the signed zeros, both edges and NaN
        inside = [-1e-12, -0.5e-12, -5e-324, -0.0, 0.0, 0.3, 1.0, 1.0 + 2.0**-52,
                  1.0 + 1e-12, math.nan]
        clamped = q._clamp_probabilities(np.array(inside))
        assert [x.hex() for x in clamped.tolist()] == [
            oracle.clamp_probability(x).hex() for x in inside
        ]
        for bad in (-1e-9, math.nextafter(-1e-12, -1.0), 1.0 + 1e-9, math.inf):
            with pytest.raises(ValueError) as scalar_error:
                oracle.clamp_probability(bad)
            with pytest.raises(ValueError) as array_error:
                q._clamp_probabilities(np.array([0.5, bad, -1.0]))
            assert str(array_error.value) == str(scalar_error.value)

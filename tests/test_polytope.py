"""Tests for local-polytope membership: facet scan, closed-form weights, simplex oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polytope_oracle
from quantum_oracle import ideal_correlator

from ttbell import polytope as pt
from ttbell.chsh import ladder_settings

CORR = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def quantum_targets(alpha, eta_f=1.0):
    s = ladder_settings(alpha)
    return tuple(eta_f * t for t in polytope_oracle.correlator_targets(ideal_correlator, s))


class TestStructure:
    def test_sixteen_strategies_eight_facets(self):
        assert len(pt.STRATEGIES) == 16
        assert len(pt.FACET_SIGNS) == 8
        for signs in pt.FACET_SIGNS:
            assert signs[0] * signs[1] * signs[2] * signs[3] == -1

    def test_strategy_correlator_order(self):
        # (A_a*B_b, A_a*B_b', A_a'*B_b', A_a'*B_b)
        assert polytope_oracle.strategy_correlators((1, -1, 1, -1)) == (1, -1, 1, -1)

    def test_every_strategy_saturates_no_facet_beyond_two(self):
        for s in pt.STRATEGIES:
            v = polytope_oracle.strategy_correlators(s)
            for _, value in pt.facet_values(v):
                assert value <= 2


class TestCertificates:
    def test_uniform_zero_targets_feasible(self):
        cert = pt.polytope_check((0.0, 0.0, 0.0, 0.0))
        assert cert.feasible
        assert cert.gap == 0.0
        assert sum(cert.weights.values()) == pytest.approx(1.0, abs=1e-9)
        assert polytope_oracle.reconstruct_targets(cert.weights) == pytest.approx((0, 0, 0, 0), abs=1e-9)

    def test_quantum_ladder_maximum_infeasible(self):
        cert = pt.polytope_check(quantum_targets(math.pi / 4))
        assert not cert.feasible
        assert cert.weights is None
        assert cert.gap == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, abs=1e-12)
        signs, value = cert.max_facet
        assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert signs in pt.FACET_SIGNS

    def test_scaled_quantum_targets_feasible_below_threshold(self):
        targets = quantum_targets(math.pi / 4, eta_f=0.70)
        cert = pt.polytope_check(targets)
        assert cert.feasible
        rec = polytope_oracle.reconstruct_targets(cert.weights)
        assert max(abs(x - y) for x, y in zip(rec, targets)) < 1e-9
        assert all(w >= 0.0 for w in cert.weights.values())

    def test_single_strategy_vertex(self):
        cert = pt.polytope_check((1.0, 1.0, 1.0, 1.0))
        assert cert.feasible
        rec = polytope_oracle.reconstruct_targets(cert.weights)
        assert rec == pytest.approx((1, 1, 1, 1), abs=1e-9)

    def test_nonlocal_box_corner_infeasible(self):
        cert = pt.polytope_check((1.0, 1.0, 1.0, -1.0))
        assert not cert.feasible
        assert cert.gap == pytest.approx(2.0, abs=1e-12)

    def test_rejects_out_of_range_targets(self):
        with pytest.raises(ValueError):
            pt.polytope_check((1.5, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            pt.polytope_check((0.0, 0.0, 0.0))

    def test_infeasible_iff_ladder_scaled_above_threshold(self):
        assert not pt.polytope_check(quantum_targets(math.pi / 4, 0.72)).feasible
        assert pt.polytope_check(quantum_targets(math.pi / 4, 0.70)).feasible


class TestAgreement:
    def test_methods_agree_on_random_targets(self):
        rng = np.random.default_rng(314159)
        for _ in range(1000):
            targets = tuple(rng.uniform(-1.0, 1.0, 4))
            cert = pt.polytope_check(targets)
            max_facet = max(v for _, v in pt.facet_values(targets))
            assert cert.feasible == (max_facet <= 2.0 + 1e-9)
            assert cert.max_facet[1] == max_facet and cert.max_facet in pt.facet_values(targets)
            if cert.feasible:
                rec = polytope_oracle.reconstruct_targets(cert.weights)
                assert max(abs(x - y) for x, y in zip(rec, targets)) < 1e-9
                assert sum(cert.weights.values()) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=200)
    @given(CORR, CORR, CORR, CORR)
    def test_feasible_mixtures_reproduce_targets(self, e1, e2, e3, e4):
        cert = pt.polytope_check((e1, e2, e3, e4))
        if cert.feasible:
            rec = polytope_oracle.reconstruct_targets(cert.weights)
            assert rec == pytest.approx((e1, e2, e3, e4), abs=1e-9)
        else:
            assert cert.max_facet[1] > 2.0

    def test_mixtures_of_strategies_always_feasible(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            w = rng.dirichlet(np.ones(16))
            targets = np.zeros(4)
            for weight, s in zip(w, pt.STRATEGIES):
                targets += weight * np.array(polytope_oracle.strategy_correlators(s))
            targets = np.clip(targets, -1.0, 1.0)
            cert = pt.polytope_check(tuple(targets))
            assert cert.feasible

    def test_factorized_model_correlators_always_feasible(self):
        from ttbell import lhv
        from ttbell.chsh import chsh_value

        rng = np.random.default_rng(161803)
        settings = ladder_settings(math.pi / 4)
        t1 = [settings.a, settings.a_prime]
        t2 = [settings.b, settings.b_prime]
        for _ in range(1000):
            model = lhv.random_factorized_model(rng, int(rng.integers(1, 4)), t1, t2)

            def corr(x, y, m=model):
                _, moments = lhv.average_over_lambda(m, x, y)
                return moments.correlator

            targets = polytope_oracle.correlator_targets(corr, settings)
            assert chsh_value(corr, settings).s_value <= 2.0 + 1e-12
            cert = pt.polytope_check(targets)
            assert cert.feasible
            rec = polytope_oracle.reconstruct_targets(cert.weights)
            assert max(abs(x - y) for x, y in zip(rec, targets)) < 1e-9


def _near_facet_targets(rng, count):
    """Targets at 2 +- up to 1e-9 on every facet, from both sides."""
    out = []
    for signs in pt.FACET_SIGNS:
        for t in rng.uniform(-0.6, 0.6, (count, 4)):
            on = t + (2.0 - float(np.dot(signs, t))) / 4.0 * np.array(signs)
            for delta in (-1e-9, -7e-10, -1e-12, 0.0, 1e-12, 7e-10, 1e-9):
                shifted = on + delta / 4.0 * np.array(signs)
                if np.all(np.abs(shifted) <= 1.0):
                    out.append(tuple(shifted.tolist()))
    return out


def _signed_zero_targets(rng):
    zeros = [tuple(z) for z in itertools.product((0.0, -0.0), repeat=4)]
    mixed = []
    for t in rng.uniform(-1.0, 1.0, (200, 4)).tolist():
        for mask in itertools.product((False, True), repeat=4):
            mixed.append(tuple(z if m else x for x, m, z in zip(t, mask, (-0.0, 0.0, -0.0, 0.0))))
    return zeros + mixed


class TestSimplexOracle:
    """Closed-form weights against the numpy simplex: the same printed digits.

    The two routes reach the same simplex of the triangulation by different
    arithmetic, so the weights agree to 1e-15 rather than bit for bit, and a
    zero weight may differ in sign.  Past 2 (within ``FEASIBILITY_TOL``) the
    simplex may find no weights, so there the closed form's weights are
    only checked to be a mixture that reproduces the targets.
    """

    def check(self, targets_list):
        infeasible = 0
        for targets in targets_list:
            max_facet = max(v for _, v in pt.facet_values(targets))
            got = pt.polytope_check(targets).weights
            want = polytope_oracle.simplex_weights(targets, pt.FEASIBILITY_TOL)
            if max_facet > 2.0 + pt.FEASIBILITY_TOL:
                assert got is None and want is None, targets
                infeasible += 1
            elif max_facet > 2.0:
                assert min(got.values()) >= 0.0, targets
                assert abs(sum(got.values()) - 1.0) <= 1e-9, targets
                rec = polytope_oracle.reconstruct_targets(got)
                assert max(abs(x - y) for x, y in zip(rec, targets)) <= 1e-9, targets
            else:
                for s in pt.STRATEGIES:
                    assert round(got[s], 9) == round(want[s], 9), (targets, s)
                    assert abs(got[s] - want[s]) <= 1e-15, (targets, s)
        return infeasible

    def test_uniform_targets(self):
        targets = [tuple(t) for t in np.random.default_rng(20_000).uniform(-1.0, 1.0, (20_000, 4)).tolist()]
        infeasible = self.check(targets)
        assert 0 < infeasible < len(targets)

    def test_scaled_ladder_targets(self):
        targets = [
            quantum_targets(alpha, eta)
            for alpha in np.linspace(0.0, math.pi, 61).tolist()
            for eta in (0.5, 0.7, 1.0 / math.sqrt(2.0), 0.72, 0.9, 1.0)
        ]
        assert 0 < self.check(targets) < len(targets)

    def test_vertices(self):
        assert self.check([tuple(map(float, polytope_oracle.strategy_correlators(s))) for s in pt.STRATEGIES]) == 0

    def test_targets_within_1e_9_of_a_facet(self):
        targets = _near_facet_targets(np.random.default_rng(17), 40)
        assert len(targets) > 1000
        self.check(targets)
        # the facet scan accepts targets up to FEASIBILITY_TOL past 2, where
        # the simplex's phase-1 residual can exceed the tolerance
        max_facets = [max(v for _, v in pt.facet_values(t)) for t in targets]
        assert sum(2.0 < m <= 2.0 + pt.FEASIBILITY_TOL for m in max_facets) > 100

    def test_signed_zero_targets(self):
        self.check(_signed_zero_targets(np.random.default_rng(29)))

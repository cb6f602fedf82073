"""Tests for the seeded detection-chain Monte Carlo.

Statistical checks use fixed seeds, so they are deterministic: once a
seeded run sits within its 4-sigma binomial band it stays there.
"""

import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ttbell import montecarlo as mc
from ttbell.quantum import quantum_joint

IDEAL = mc.DetectionConfig()


class TestDetectionConfig:
    def test_overall_f_is_the_product(self):
        cfg = mc.DetectionConfig(eta_d=0.9, f1=0.8, f21=0.7, f_d2=0.6)
        assert cfg.overall_f == pytest.approx(0.8 * 0.7 * 0.6, abs=1e-15)
        assert cfg.detect_prob == pytest.approx(0.9 * cfg.overall_f, abs=1e-15)

    @pytest.mark.parametrize("field", ["eta_d", "f1", "f21", "f_d2"])
    def test_rejects_out_of_range(self, field):
        with pytest.raises(ValueError):
            mc.DetectionConfig(**{field: 1.1})
        with pytest.raises(ValueError):
            mc.DetectionConfig(**{field: -0.1})


class TestSampleTrial:
    def test_zero_acceptance_never_detects(self):
        cfg = mc.DetectionConfig(f21=0.0)
        assert all(
            mc.sample_trial(0.3, 0.1, cfg, mc.trial_rng(1, i)) is None for i in range(200)
        )

    def test_aligned_settings_always_d_plus_plus(self):
        for i in range(200):
            out = mc.sample_trial(math.pi / 2, math.pi / 2, IDEAL, mc.trial_rng(2, i))
            assert out == mc.DetectorId(1, 1)

    def test_detector_labels(self):
        assert [d.label() for d in mc.DETECTORS] == ["D++", "D+-", "D-+", "D--"]


class TestRunDeterminism:
    def test_same_seed_same_counts(self):
        r1 = mc.run(0.5, 0.2, IDEAL, 2000, seed=77)
        r2 = mc.run(0.5, 0.2, IDEAL, 2000, seed=77)
        assert r1 == r2

    def test_shard_count_is_invisible(self):
        cfg = mc.DetectionConfig(eta_d=0.85, f1=0.95)
        runs = [mc.run(0.9, -0.3, cfg, 5001, seed=13, n_shards=k) for k in (1, 3, 17, 500)]
        assert all(r == runs[0] for r in runs)

    def test_different_seeds_differ(self):
        r1 = mc.run(0.5, 0.2, IDEAL, 2000, seed=1)
        r2 = mc.run(0.5, 0.2, IDEAL, 2000, seed=2)
        assert r1.counts != r2.counts

    def test_vector_run_matches_scalar_trials(self):
        cfg = mc.DetectionConfig(eta_d=0.8, f21=0.9)
        n, seed = 300, 424242
        counts = {d: 0 for d in mc.DETECTORS}
        undetected = 0
        for i in range(n):
            out = mc.sample_trial(0.7, 0.1, cfg, mc.trial_rng(seed, i))
            if out is None:
                undetected += 1
            else:
                counts[out] += 1
        r = mc.run(0.7, 0.1, cfg, n, seed)
        assert r.counts == counts and r.n_undetected == undetected

    def test_single_trial_zero_acceptance(self):
        r = mc.run(0.3, 0.0, mc.DetectionConfig(f_d2=0.0), 1, seed=5)
        assert r.n_undetected == 1 and r.n_detected == 0

    def test_only_the_product_of_acceptances_matters(self):
        a = mc.run(0.4, 1.0, mc.DetectionConfig(eta_d=1.0, f1=0.5, f21=0.8), 4000, seed=3)
        b = mc.run(0.4, 1.0, mc.DetectionConfig(eta_d=1.0, f1=0.8, f21=0.5), 4000, seed=3)
        assert a.counts == b.counts and a.n_undetected == b.n_undetected

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc.run(0.0, 0.0, IDEAL, 0, seed=1)
        with pytest.raises(ValueError):
            mc.run(0.0, 0.0, IDEAL, 10, seed=1, n_shards=0)
        with pytest.raises(ValueError):
            mc.run(0.0, 0.0, IDEAL, 10, seed=-1)
        with pytest.raises(ValueError):
            mc.run(0.0, 0.0, IDEAL, 10, seed=2**64)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            mc.run(bad, 0.0, IDEAL, 10, seed=1)
        with pytest.raises(ValueError, match="finite"):
            mc.run(0.0, bad, IDEAL, 10, seed=1)


# Exact counts (n_pp, n_pm, n_mp, n_mm, n_undetected) frozen from the
# unchunked implementation: (seed, n, n_shards, a, b, eta_d, counts).
# The cases cover single trials, sizes that are not a multiple of the
# chunk size, and shards longer than one chunk.
GOLDEN_COUNTS = [
    (0, 1, 1, 0.3, 0.1, 1.0, (1, 0, 0, 0, 0)),
    (2, 1, 1, -1.2, 0.4, 0.6, (0, 0, 0, 0, 1)),
    (3, 1, 1, -1.2, 0.4, 0.6, (0, 0, 1, 0, 0)),
    (1, 1000, 3, 0.9, -0.3, 0.85, (520, 237, 29, 75, 139)),
    (2**63 + 7, 65536, 1, math.pi / 4, math.pi / 2, 0.75, (35911, 6098, 1063, 6146, 16318)),
    (0, 65537, 1, math.pi / 4, 0.0, 0.9, (42844, 7440, 1276, 7405, 6572)),
    (12345, 65537, 4, 1.2, -0.7, 0.7, (15044, 29302, 1018, 562, 19611)),
    (1, 300001, 3, math.pi / 3, math.pi / 6, 0.72, (188178, 13528, 944, 13478, 83873)),
    (2**63 + 7, 300001, 7, 0.0, 0.0, 1.0, (149661, 0, 0, 150340, 0)),
    (2024, 1_500_000, 4, math.pi / 4, 3 * math.pi / 4, 0.71,
     (454347, 455072, 77841, 78468, 434272)),
    (2**64 - 1, 131073, 2, -2.5, 4.0, 0.5, (12903, 160, 657, 51890, 65463)),
]


@pytest.mark.parametrize("seed, n, n_shards, a, b, eta_d, expected", GOLDEN_COUNTS)
def test_golden_counts(seed, n, n_shards, a, b, eta_d, expected):
    r = mc.run(a, b, mc.DetectionConfig(eta_d=eta_d), n, seed, n_shards=n_shards)
    assert tuple(r.counts[d] for d in mc.DETECTORS) + (r.n_undetected,) == expected


def test_memory_does_not_grow_with_trials():
    # an unchunked run would hold a 4e6 x 4 float64 draw array (128 MB)
    tracemalloc.start()
    try:
        mc.run(0.7, 0.1, mc.DetectionConfig(eta_d=0.8), 4_000_000, seed=9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


class TestStatisticalConsistency:
    def test_detector_frequencies_within_four_sigma(self):
        n = 200000
        cases = [
            (0.0, 0.0, mc.DetectionConfig()),
            (math.pi / 4, 0.0, mc.DetectionConfig()),
            (math.pi / 3, math.pi / 6, mc.DetectionConfig(eta_d=0.9, f1=0.8)),
            (1.2, -0.7, mc.DetectionConfig(eta_d=0.75)),
        ]
        for case_idx, (a, b, cfg) in enumerate(cases):
            r = mc.run(a, b, cfg, n, seed=1000 + case_idx)
            joint = quantum_joint(a, b)
            for det in mc.DETECTORS:
                p = cfg.detect_prob * joint.prob(det.a, det.b)
                sigma = math.sqrt(p * (1.0 - p) / n)
                assert abs(r.counts[det] / n - p) <= 4.0 * sigma + 1e-12

    def test_detector_frequencies_at_one_million(self):
        n = 1_000_000
        a, b = 0.8, -0.2
        cfg = mc.DetectionConfig(eta_d=0.9, f21=0.85)
        r = mc.run(a, b, cfg, n, seed=777)
        joint = quantum_joint(a, b)
        for det in mc.DETECTORS:
            p = cfg.detect_prob * joint.prob(det.a, det.b)
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(r.counts[det] / n - p) <= 4.0 * sigma + 1e-12

    def test_scale_separation(self):
        # the conditioned estimator ignores eta_d*F; the raw one is linear in it
        n = 200000
        a, b = 0.9, 0.15
        full = mc.estimate(mc.run(a, b, mc.DetectionConfig(), n, seed=55))
        dim = mc.estimate(mc.run(a, b, mc.DetectionConfig(eta_d=0.5), n, seed=56))
        combined = math.hypot(full.std_error_conditioned, dim.std_error_conditioned)
        assert abs(full.correlator_conditioned - dim.correlator_conditioned) <= 4 * combined
        truth = math.cos(a - b)
        assert full.correlator_exp == pytest.approx(truth, abs=4 * full.std_error)
        assert dim.correlator_exp == pytest.approx(0.5 * truth, abs=4 * dim.std_error)

    def test_d_plus_plus_frequency_frozen_case(self):
        # closed-form oracle: (1/4)(1 + sin pi/4)(1 + cos pi/4) = 0.72855339
        n = 200000
        r = mc.run(math.pi / 4, 0.0, IDEAL, n, seed=8)
        expect = quantum_joint(math.pi / 4, 0.0).prob(1, 1)
        assert expect == pytest.approx(0.7285533905932737, abs=1e-12)
        sigma = math.sqrt(expect * (1 - expect) / n)
        assert r.counts[mc.DetectorId(1, 1)] / n == pytest.approx(expect, abs=4 * sigma)

    def test_estimators_recover_scaled_and_conditioned_correlators(self):
        n = 200000
        cfg = mc.DetectionConfig(eta_d=0.8)
        a, b = math.pi / 4, 0.0
        est = mc.estimate(mc.run(a, b, cfg, n, seed=90))
        truth = math.cos(a - b)
        assert est.correlator_exp == pytest.approx(0.8 * truth, abs=4 * est.std_error)
        assert est.correlator_conditioned == pytest.approx(
            truth, abs=4 * est.std_error_conditioned
        )

    def test_orthogonal_settings_give_null_correlator(self):
        est = mc.estimate(mc.run(math.pi / 2, 0.0, IDEAL, 200000, seed=21))
        assert est.correlator_exp == pytest.approx(0.0, abs=4 * est.std_error)


class TestEstimate:
    def test_all_counts_in_one_detector(self):
        r = mc.RunCounts(
            settings=(0.0, 0.0),
            config=IDEAL,
            n_total=100,
            counts={mc.DetectorId(1, 1): 80, mc.DetectorId(1, -1): 0,
                    mc.DetectorId(-1, 1): 0, mc.DetectorId(-1, -1): 0},
            n_undetected=20,
            seed=0,
        )
        est = mc.estimate(r)
        assert est.correlator_exp == pytest.approx(0.8, abs=1e-15)
        assert est.correlator_conditioned == pytest.approx(1.0, abs=1e-15)
        assert est.std_error_conditioned == 0.0

    def test_zero_detections_flagged(self):
        r = mc.RunCounts(
            settings=(0.0, 0.0),
            config=mc.DetectionConfig(f1=0.0),
            n_total=50,
            counts={d: 0 for d in mc.DETECTORS},
            n_undetected=50,
            seed=0,
        )
        est = mc.estimate(r)
        assert est.correlator_exp == 0.0
        assert est.correlator_conditioned is None
        assert est.std_error_conditioned is None

    def test_counts_invariant_enforced(self):
        with pytest.raises(ValueError):
            mc.RunCounts(
                settings=(0.0, 0.0),
                config=IDEAL,
                n_total=10,
                counts={d: 0 for d in mc.DETECTORS},
                n_undetected=3,
                seed=0,
            )

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=4, max_size=4),
        st.integers(min_value=0, max_value=1000),
    )
    def test_estimator_arithmetic(self, quad, undetected):
        total = sum(quad) + undetected
        if total == 0:
            return
        counts = dict(zip(mc.DETECTORS, quad))
        r = mc.RunCounts(
            settings=(0.1, 0.2), config=IDEAL, n_total=total,
            counts=counts, n_undetected=undetected, seed=9,
        )
        est = mc.estimate(r)
        expected_sum = quad[0] - quad[1] - quad[2] + quad[3]
        assert est.correlator_exp == pytest.approx(expected_sum / total, abs=1e-12)
        if sum(quad) > 0:
            assert est.correlator_conditioned == pytest.approx(
                expected_sum / sum(quad), abs=1e-12
            )
            assert -1.0 <= est.correlator_conditioned <= 1.0


class TestHvDetection:
    def test_identity_scaling(self):
        assert mc.hv_detection_probability(1.0, IDEAL) == 1.0

    def test_product_arithmetic(self):
        cfg = mc.DetectionConfig(eta_d=0.9, f1=0.8)
        assert mc.hv_detection_probability(0.25, cfg) == pytest.approx(0.18, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mc.hv_detection_probability(1.2, IDEAL)

    def test_ensemble_average_matches_scaled_quantum_joint(self):
        # averaging detection probabilities over a reproducer's support
        # recovers eta_d*F times the quantum joint, entry by entry
        from ttbell import lhv

        a, b = math.pi / 3, math.pi / 6
        cfg = mc.DetectionConfig(eta_d=0.9, f1=0.95, f21=0.9, f_d2=0.85)
        model = lhv.fixed_setting_reproducer(a, b)
        expected = quantum_joint(a, b)
        for A in (1, -1):
            for B in (1, -1):
                averaged = sum(
                    lam.weight
                    * mc.hv_detection_probability(
                        lhv.per_lambda_joint(model, a, b, lam).prob(A, B), cfg
                    )
                    for lam in model.support
                )
                assert averaged == pytest.approx(
                    cfg.detect_prob * expected.prob(A, B), abs=1e-12
                )

    def test_total_detection_probability_is_eta_f(self):
        a, b = math.pi / 3, math.pi / 6
        cfg = mc.DetectionConfig(eta_d=0.8, f21=0.75)
        model_total = 0.0
        from ttbell import lhv

        model = lhv.fixed_setting_reproducer(a, b)
        for lam in model.support:
            joint = lhv.per_lambda_joint(model, a, b, lam)
            for _, p in joint.items():
                model_total += lam.weight * mc.hv_detection_probability(p, cfg)
        assert model_total == pytest.approx(cfg.detect_prob, abs=1e-12)

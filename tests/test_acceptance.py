"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Statistical criteria use fixed seeds and are exactly
reproducible.
"""

import math
import time

import numpy as np
import pytest

import polytope_oracle
import quantum_oracle

from ttbell import chsh, lhv, montecarlo, polytope

TOL = 1e-12
TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_01_quantum_model_equivalence():
    """The closed-form joint and the amplitude oracle agree on a 100x100 grid."""
    start = time.perf_counter()
    grid = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    worst_gap = 0.0
    worst_norm = 0.0
    for a in grid:
        for b in grid:
            closed = quantum_oracle.quantum_joint(a, b)
            amp = [quantum_oracle.brute_joint(a, b, *outs) for outs, _ in closed.items()]
            for (_, pc), pa in zip(closed.items(), amp):
                worst_gap = max(worst_gap, abs(pc - pa))
                assert 0.0 <= pc <= 1.0
            worst_norm = max(worst_norm, abs(sum(p for _, p in closed.items()) - 1.0), abs(sum(amp) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= TOL and worst_norm <= TOL and elapsed < 1.0
    report(
        "01 quantum-model-equivalence", ok,
        f"(max route gap {worst_gap:.2e}, max norm defect {worst_norm:.2e}, {elapsed:.2f}s)",
    )


def test_02_chsh_scan_maximum():
    """The scan finds alpha* = pi/4 and S_max = 2*sqrt(2) to 1e-9."""
    start = time.perf_counter()
    _, summary = chsh.scan_alpha(0.0, math.pi, 1e-3)
    elapsed = time.perf_counter() - start
    err_alpha = abs(summary.alpha_star - math.pi / 4)
    err_s = abs(summary.s_max - TWO_SQRT_TWO)
    ok = err_alpha <= 1e-9 and err_s <= 1e-9 and elapsed < 1.0
    report(
        "02 chsh-scan-maximum", ok,
        f"(|alpha*-pi/4| = {err_alpha:.2e}, |S-2sqrt2| = {err_s:.2e}, {elapsed:.2f}s)",
    )


def test_03_detection_threshold():
    """eta_d*F = 0.72 violates, 0.70 does not; values exact to 1e-9."""
    above = chsh.threshold_analysis(1.0, 0.72)
    below = chsh.threshold_analysis(1.0, 0.70)
    err_above = abs(above.s_exp_max - 0.72 * TWO_SQRT_TWO)
    err_below = abs(below.s_exp_max - 0.70 * TWO_SQRT_TWO)
    ok = (
        above.violated
        and not below.violated
        and err_above <= 1e-9
        and err_below <= 1e-9
        and abs(above.s_exp_max - 2.0364675298172568) <= 1e-9
        and abs(below.s_exp_max - 1.9798989873223332) <= 1e-9
    )
    report(
        "03 detection-threshold", ok,
        f"(S_exp 0.72 -> {above.s_exp_max:.9f}, 0.70 -> {below.s_exp_max:.9f})",
    )


def test_04_monte_carlo_consistency():
    """20 seeded runs at n = 1e6 sit within 4-sigma of both correlators."""
    start = time.perf_counter()
    n = 1_000_000
    angle_pairs = [
        (0.0, 0.0), (math.pi / 4, 0.0), (math.pi / 3, math.pi / 6),
        (1.2, -0.7), (2.5, 1.0),
    ]
    efficiencies = [(1.0, 1.0), (1.0, 0.9), (0.9, 0.8), (0.75, 1.0)]
    cases = [(a, b, eta, f) for (a, b) in angle_pairs for (eta, f) in efficiencies]
    assert len(cases) == 20

    worst_pull = 0.0
    for idx, (a, b, eta, f) in enumerate(cases):
        config = montecarlo.DetectionConfig(eta_d=eta, f1=f)
        rc = montecarlo.run(a, b, config, n, seed=50_000 + idx)
        est = montecarlo.estimate(rc)
        truth = math.cos(a - b)
        eta_f = config.detect_prob

        sigma_raw = math.sqrt(max(eta_f - (eta_f * truth) ** 2, 0.0) / n)
        gap_raw = abs(est.correlator_exp - eta_f * truth)
        if sigma_raw == 0.0:
            assert gap_raw == 0.0, f"case {idx}: deterministic raw case off"
            pull_raw = 0.0
        else:
            pull_raw = gap_raw / sigma_raw
            assert pull_raw <= 4.0, f"case {idx}: raw pull {pull_raw:.2f}"

        sigma_cond = math.sqrt(max(1.0 - truth * truth, 0.0) / rc.n_detected)
        gap_cond = abs(est.correlator_conditioned - truth)
        if sigma_cond == 0.0:
            assert gap_cond == 0.0, f"case {idx}: deterministic case off"
            pull_cond = 0.0
        else:
            pull_cond = gap_cond / sigma_cond
            assert pull_cond <= 4.0, f"case {idx}: conditioned pull {pull_cond:.2f}"
        worst_pull = max(worst_pull, pull_raw, pull_cond)
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    report(
        "04 monte-carlo-consistency", ok,
        f"(20 cases x 1e6 trials, worst pull {worst_pull:.2f} sigma, {elapsed:.1f}s)",
    )


def test_05_lhv_chsh_bound_sweep():
    """1e5 random factorized models obey the per-state and averaged bounds."""
    start = time.perf_counter()
    rng = np.random.default_rng(8_675_309)
    settings = chsh.ladder_settings(math.pi / 4)
    t1 = [settings.a, settings.a_prime]
    t2 = [settings.b, settings.b_prime]
    worst_per = 0.0
    worst_avg = 0.0
    for _ in range(100_000):
        model = lhv.random_factorized_model(rng, int(rng.integers(1, 4)), t1, t2)
        for lam in model.support:
            worst_per = max(worst_per, lhv.per_lambda_chsh(model, settings, lam))
        worst_avg = max(worst_avg, lhv.averaged_chsh(model, settings))
    elapsed = time.perf_counter() - start
    ok = worst_per <= 2.0 + TOL and worst_avg <= 2.0 + TOL and elapsed < 30.0
    report(
        "05 lhv-chsh-bound", ok,
        f"(worst per-state {worst_per:.12f}, worst averaged {worst_avg:.12f}, {elapsed:.1f}s)",
    )


def test_06_polytope_certificates():
    """Quantum targets certified infeasible; scaled ones feasible; random
    feasible targets get weights that reproduce them."""
    settings = chsh.ladder_settings(math.pi / 4)
    targets = polytope_oracle.correlator_targets(quantum_oracle.ideal_correlator, settings)

    cert = polytope.polytope_check(targets)
    gap_err = abs(cert.gap - (TWO_SQRT_TWO - 2.0))
    ok_infeasible = (not cert.feasible) and gap_err <= TOL

    scaled = tuple(0.70 * t for t in targets)
    cert70 = polytope.polytope_check(scaled)
    rec = polytope_oracle.reconstruct_targets(cert70.weights)
    residual = max(abs(x - y) for x, y in zip(rec, scaled))
    ok_feasible = cert70.feasible and residual <= 1e-9

    rng = np.random.default_rng(271_828)
    agreement = True
    for _ in range(10_000):
        t = tuple(rng.uniform(-1.0, 1.0, 4))
        c = polytope.polytope_check(t)
        if c.feasible:
            r = polytope_oracle.reconstruct_targets(c.weights)
            agreement = agreement and max(abs(x - y) for x, y in zip(r, t)) <= 1e-9

    ok = ok_infeasible and ok_feasible and agreement
    report(
        "06 polytope-certificates", ok,
        f"(gap error {gap_err:.2e}, weight residual {residual:.2e}, 1e4 random agreements)",
    )


def test_07_bookkeeping_identity_suite():
    """Reproducer passes all ensemble identities; moment identity on the grid."""
    rng = np.random.default_rng(1_618_033)

    ok_reproducer = True
    for _ in range(50):
        a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
        model = lhv.fixed_setting_reproducer(a, b)
        rep = lhv.verify_consistency(model, a, b)
        ok_reproducer = ok_reproducer and rep.passed and rep.outcome_swap_symmetric

    grid = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    worst_identity = 0.0
    for a in grid:
        for b in grid:
            lhs, rhs = quantum_oracle.t2_mean_identity(a, b)
            worst_identity = max(worst_identity, abs(lhs - rhs))
    ok_identity = worst_identity <= TOL

    ok = ok_reproducer and ok_identity
    report(
        "07 bookkeeping-identities", ok,
        f"(50 reproducer pairs, grid identity {worst_identity:.2e})",
    )


def test_08_independence_witnesses():
    """Quantum statistics depend on the earlier setting and outcome; factorized
    hidden-variable statistics do not."""
    # quantum: second-slot marginal shifts with the first setting
    p_tilted = quantum_oracle.marginal_t2(math.pi / 4, 0.0, 1)
    p_straight = quantum_oracle.marginal_t2(0.0, 0.0, 1)
    ok_quantum_setting = (
        abs(p_tilted - 0.75) <= TOL
        and abs(p_straight - 0.5) <= TOL
        and abs(p_tilted - p_straight) > 0.1
    )

    # quantum: conditional depends on the first outcome when cos(a-b) != 0
    ok_quantum_outcome = (
        abs(
            quantum_oracle.conditional_t2(0.7, 0.1, 1, 1)
            - quantum_oracle.conditional_t2(0.7, 0.1, -1, 1)
        )
        > 0.1
    )

    # factorized models: second-slot marginal ignores the first setting
    rng = np.random.default_rng(4_242)
    a_settings = [0.0, math.pi / 4, 1.9]
    worst_shift = 0.0
    for _ in range(200):
        model = lhv.random_factorized_model(
            rng, int(rng.integers(1, 5)), a_settings, [0.6]
        )
        marginals = []
        for a in a_settings:
            joint, _ = lhv.average_over_lambda(model, a, 0.6)
            marginals.append(joint.prob(1, 1) + joint.prob(-1, 1))
        worst_shift = max(worst_shift, max(marginals) - min(marginals))
    ok_model_setting = worst_shift <= TOL

    ok = ok_quantum_setting and ok_quantum_outcome and ok_model_setting
    report(
        "08 independence-witnesses", ok,
        f"(quantum shift 0.75 vs 0.50; factorized max shift {worst_shift:.2e})",
    )

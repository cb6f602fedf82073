"""Scalar oracle of the detection-chain Monte Carlo, for the tests.

``ttbell.montecarlo.run`` draws whole chunks of trials at once; these
helpers take one trial at a time, straight from the reproducibility
contract, so the tests can check the vector route against them.
"""

from numpy.random import Generator, Philox

import quantum_oracle
from ttbell.montecarlo import DETECTORS, DetectionConfig, DetectorId, RunCounts, _check_seed


def trial_rng(seed: int, trial_index: int) -> Generator:
    """Generator positioned at the counter block owned by one trial."""
    return Generator(Philox(key=_check_seed(seed)).advance(trial_index))


def sample_trial(a: float, b: float, config: DetectionConfig, rng: Generator):
    """One particle through the chain: DetectorId, or None if undetected.

    Consumes exactly three uniform draws (outcome at t1, outcome at t2,
    detection flag), with outcome +1 iff u < p under the half-open
    convention u in [0, 1).
    """
    u1, u2, u3 = rng.random(3)
    a_outcome = 1 if u1 < quantum_oracle.marginal_t1(a, 1) else -1
    b_outcome = 1 if u2 < quantum_oracle.conditional_t2(a, b, a_outcome, 1) else -1
    if u3 < config.detect_prob:
        return DetectorId(a_outcome, b_outcome)
    return None


def run_trials(a: float, b: float, config: DetectionConfig, n: int, seed: int) -> RunCounts:
    """``montecarlo.run`` computed one ``sample_trial`` at a time."""
    counts = {d: 0 for d in DETECTORS}
    undetected = 0
    for i in range(n):
        out = sample_trial(a, b, config, trial_rng(seed, i))
        if out is None:
            undetected += 1
        else:
            counts[out] += 1
    return RunCounts(n, counts, undetected, seed)


def hv_detection_probability(model_joint: float, config: DetectionConfig) -> float:
    """Detection probability assigned to a hidden-state joint probability.

    Scales the model's outcome probability by the same eta_d*F acceptance
    as the quantum chain, so ensemble averages of detected events line up
    with the detector-level probabilities whenever the model reproduces
    the outcome statistics.
    """
    if not 0.0 <= model_joint <= 1.0:
        raise ValueError(f"model_joint must lie in [0, 1], got {model_joint!r}")
    return config.detect_prob * model_joint

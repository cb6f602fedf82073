"""Seeded Monte Carlo of the source -> analyzer -> analyzer -> detector chain.

Each trial draws the first-slot outcome A from its marginal, the
second-slot outcome B from the conditional given A (both as
``quantum.probability_columns`` gives them), and then a detection
flag with probability eta_d * F, where F = f1 * f21 * f_d2 collects the
collimator acceptances.  Only the product eta_d * F matters to the
statistics; the per-stage factors are carried for reporting.

Reproducibility contract: trials are numbered, and trial i consumes its
own counter block of the Philox generator keyed by the run seed (four
64-bit words per block; the first three decide A, B and the detection
flag).  Runs are therefore bit-identical for a fixed seed no matter how
the trial range is sharded across workers.

An outcome of probability p happens when numpy's uniform double from the
word x, u = (x >> 11) * 2**-53, satisfies u < p.  The run compares the
words as integers instead: x >> 11 is an integer, so u < p exactly when
x >> 11 < ceil(p * 2**53), that is when x < ceil(p * 2**53) * 2**11.

Memory is bounded whatever the number of trials: each shard draws its
blocks in fixed-size chunks and keeps only four running counts, so a run
holds one chunk of words at a time.  Chunk boundaries, like shard
boundaries, do not change the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.random import Philox

from . import quantum

DRAWS_PER_TRIAL = 4  # one Philox counter block per trial (3 words used)
# trials drawn at once: bounds memory whatever n is, and keeps a chunk's
# words (512 KiB) in a 2 MiB L2 cache between the draw and the comparisons
_CHUNK_TRIALS = 1 << 14
# bounds the time of one run: 2**34 trials take about 9.5 min at 30 M trials/s
# (one core of a 2-vCPU Xeon)
MAX_TRIALS = 1 << 34


class DetectorId(NamedTuple):
    """Which of the four detectors flashed: (first outcome, second outcome)."""

    a: int
    b: int


DETECTORS = (DetectorId(1, 1), DetectorId(1, -1), DetectorId(-1, 1), DetectorId(-1, -1))


@dataclass(frozen=True)
class DetectionConfig:
    """Detector efficiency and collimator acceptance probabilities."""

    eta_d: float = 1.0
    f1: float = 1.0
    f21: float = 1.0
    f_d2: float = 1.0

    def __post_init__(self):
        for name in ("eta_d", "f1", "f21", "f_d2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    @property
    def overall_f(self) -> float:
        return self.f1 * self.f21 * self.f_d2

    @property
    def detect_prob(self) -> float:
        return self.eta_d * self.overall_f


@dataclass(frozen=True)
class RunCounts:
    """Aggregated detector counts of one seeded run."""

    n_total: int
    counts: dict[DetectorId, int]
    n_undetected: int
    seed: int

    def __post_init__(self):
        if sum(self.counts.values()) + self.n_undetected != self.n_total:
            raise ValueError("detector counts plus undetected must equal n_total")

    @property
    def n_detected(self) -> int:
        return self.n_total - self.n_undetected


@dataclass(frozen=True)
class EstimatedMoments:
    """Correlator estimates from one run.

    ``correlator_exp`` keeps undetected trials in the denominator and
    estimates eta_d*F*cos(a-b); ``correlator_conditioned`` divides by the
    detected count and estimates cos(a-b) itself (None when nothing was
    detected).  Standard errors are plug-in binomial estimates.
    """

    correlator_exp: float
    correlator_conditioned: Optional[float]
    std_error: float
    std_error_conditioned: Optional[float]


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit value, got {seed!r}")
    return seed


def _word_threshold(p: float) -> int:
    """T such that a word x gives numpy's u < p exactly when x < T (p in [0, 1];
    ``p * 2**53`` is exact, and p = 1 gives 2**64, above every word)."""
    return math.ceil(p * 2.0**53) << 11


def run(
    a: float,
    b: float,
    config: DetectionConfig,
    n: int,
    seed: int,
    n_shards: int = 1,
) -> RunCounts:
    """Aggregate n independent trials, bit-reproducibly.

    The trial range may be split into any number of shards without
    changing the result: shard boundaries only decide which worker
    generates which counter blocks.  Each shard is drawn in fixed-size
    chunks, so memory stays bounded by one chunk whatever n is; like
    sharding, chunking does not change the counts.  Raises ValueError
    for non-finite settings and for n above ``MAX_TRIALS``.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"settings must be finite, got a={a!r}, b={b!r}")
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if n > MAX_TRIALS:
        raise ValueError(f"{n} trials exceed the limit of {MAX_TRIALS}")
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    _check_seed(seed)

    # P(A=+1 | a) and P(B=+1 | a, b, A) at rows (+1, +1) and (-1, +1) of ROW_OUTCOMES
    _, p_t1, _, conditional = quantum.probability_columns(math.sin(a), math.cos(a - b), *quantum.ROW_OUTCOMES)
    t_a = _word_threshold(p_t1.item(0))
    t_b_after_plus = _word_threshold(conditional.item(0))
    t_b_after_minus = _word_threshold(conditional.item(2))
    t_det = _word_threshold(config.detect_prob)

    n_a_plus = n_a_minus = n_pp = n_mp = 0
    bounds = [round(i * n / n_shards) for i in range(n_shards + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        bit_gen = Philox(key=seed).advance(lo)
        for start in range(lo, hi, _CHUNK_TRIALS):
            # whole rows keep the stream on block boundaries: trial i
            # reads exactly the four words of counter block i
            w = bit_gen.random_raw((min(_CHUNK_TRIALS, hi - start), DRAWS_PER_TRIAL))
            detected = w[:, 2] < t_det
            a_plus = detected & (w[:, 0] < t_a)
            a_minus = detected ^ a_plus
            n_a_plus += int(np.count_nonzero(a_plus))
            n_a_minus += int(np.count_nonzero(a_minus))
            n_pp += int(np.count_nonzero(a_plus & (w[:, 1] < t_b_after_plus)))
            n_mp += int(np.count_nonzero(a_minus & (w[:, 1] < t_b_after_minus)))
            # let the chunk go before the next is drawn, so one is held at a time
            del w, detected, a_plus, a_minus

    # detected trials only, in DETECTORS order
    totals = (n_pp, n_a_plus - n_pp, n_mp, n_a_minus - n_mp)
    return RunCounts(
        n_total=n,
        counts=dict(zip(DETECTORS, totals)),
        n_undetected=n - n_a_plus - n_a_minus,
        seed=seed,
    )


def estimate(rc: RunCounts) -> EstimatedMoments:
    """Correlator estimators and their binomial standard errors."""
    if rc.n_total < 1:
        raise ValueError("run contains no trials")
    product_sum = sum(det.a * det.b * c for det, c in rc.counts.items())
    n_det = rc.n_detected
    corr_exp = product_sum / rc.n_total
    det_frac = n_det / rc.n_total
    se_exp = math.sqrt(max(det_frac - corr_exp * corr_exp, 0.0) / rc.n_total)
    if n_det == 0:
        return EstimatedMoments(
            correlator_exp=corr_exp,
            correlator_conditioned=None,
            std_error=se_exp,
            std_error_conditioned=None,
        )
    corr_cond = product_sum / n_det
    se_cond = math.sqrt(max(1.0 - corr_cond * corr_cond, 0.0) / n_det)
    return EstimatedMoments(
        correlator_exp=corr_exp,
        correlator_conditioned=corr_cond,
        std_error=se_exp,
        std_error_conditioned=se_cond,
    )

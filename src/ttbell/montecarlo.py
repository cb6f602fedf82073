"""Seeded Monte Carlo of the source -> analyzer -> analyzer -> detector chain.

Each trial draws the first-slot outcome A from its marginal, the
second-slot outcome B from the conditional given A, and then a detection
flag with probability eta_d * F, where F = f1 * f21 * f_d2 collects the
collimator acceptances.  Only the product eta_d * F matters to the
statistics; the per-stage factors are carried for reporting.

Reproducibility contract: trials are numbered, and trial i consumes its
own counter block of the Philox generator keyed by the run seed (four
uniform doubles per block; the first three are used for A, B and the
detection flag).  Runs are therefore bit-identical for a fixed seed no
matter how the trial range is sharded across workers.

Memory is bounded whatever the number of trials: each shard draws its
blocks in fixed-size chunks and keeps only four running counts, so a run
holds one chunk of draws at a time.  Chunk boundaries, like shard
boundaries, do not change the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.random import Generator, Philox

from . import quantum

DRAWS_PER_TRIAL = 4  # one Philox counter block per trial (3 doubles used)
_CHUNK_TRIALS = 1 << 16  # trials drawn at once; bounds memory whatever n is
# bounds the time of one run: 2**34 trials take about 12 min at 24 M trials/s
MAX_TRIALS = 1 << 34


class DetectorId(NamedTuple):
    """Which of the four detectors flashed: (first outcome, second outcome)."""

    a: int
    b: int

    def label(self) -> str:
        return "D" + "".join("+" if v == 1 else "-" for v in self)


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

    settings: tuple[float, float]
    config: DetectionConfig
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
    n_detected: int


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit value, got {seed!r}")
    return seed


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

    p1_plus = quantum.marginal_t1(a, 1)
    cos_ab = math.cos(a - b)
    detect_p = config.detect_prob

    n_pp = n_a_plus = n_b_plus = n_det = 0
    bounds = [round(i * n / n_shards) for i in range(n_shards + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        gen = Generator(Philox(key=seed).advance(lo))
        for start in range(lo, hi, _CHUNK_TRIALS):
            # whole rows keep the stream on block boundaries: trial i
            # reads exactly the four doubles of counter block i
            u = gen.random((min(_CHUNK_TRIALS, hi - start), DRAWS_PER_TRIAL))
            a_plus = u[:, 0] < p1_plus
            b_plus = u[:, 1] < np.where(a_plus, 0.5 * (1.0 + cos_ab), 0.5 * (1.0 - cos_ab))
            detected = u[:, 2] < detect_p
            a_plus &= detected
            b_plus &= detected
            n_det += int(np.count_nonzero(detected))
            n_a_plus += int(np.count_nonzero(a_plus))
            n_b_plus += int(np.count_nonzero(b_plus))
            n_pp += int(np.count_nonzero(a_plus & b_plus))

    # inclusion-exclusion over the detected trials, in DETECTORS order
    totals = (
        n_pp,
        n_a_plus - n_pp,
        n_b_plus - n_pp,
        n_det - n_a_plus - n_b_plus + n_pp,
    )
    return RunCounts(
        settings=(a, b),
        config=config,
        n_total=n,
        counts=dict(zip(DETECTORS, totals)),
        n_undetected=n - n_det,
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
            n_detected=0,
        )
    corr_cond = product_sum / n_det
    se_cond = math.sqrt(max(1.0 - corr_cond * corr_cond, 0.0) / n_det)
    return EstimatedMoments(
        correlator_exp=corr_exp,
        correlator_conditioned=corr_cond,
        std_error=se_exp,
        std_error_conditioned=se_cond,
        n_detected=n_det,
    )

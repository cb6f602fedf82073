"""CHSH expression over two-time correlators, angle ladder and threshold.

The inequality combines four correlators,

    S = | E(a,b) + E(a,b') + E(a',b') - E(a',b) |  <=  2,

which any factorized hidden-variable model obeys.  The quantum correlator
cos(a - b) on the one-parameter angle ladder with separations
|a-b| = |a-b'| = |a'-b'| = alpha and |a'-b| = 3*alpha gives

    S_ideal(alpha) = | 3 cos(alpha) - cos(3*alpha) | = | c (6 - 4 c^2) |,

with c = cos(alpha), computed from c alone (no angle 3*alpha is formed)
and maximal at alpha = pi/4 with S = 2*sqrt(2).  With detector efficiency
eta_d and overall transmission F the measured value scales linearly,
S_exp = eta_d*F*S_ideal, so a violation needs eta_d*F > 1/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

CLASSICAL_BOUND = 2.0
VIOLATION_TOL = 1e-12
CRITICAL_ETA_F = 1.0 / math.sqrt(2.0)
S_IDEAL_MAX = 2.0 * math.sqrt(2.0)
MAX_SCAN_ROWS = 1 << 22  # bounds a scan's column; step 1e-6 on [0, pi] is 3.1 M rows
SCAN_CHUNK = 1 << 14  # rows of s_ideal computed at a time, a multiple of 64


class InvalidCorrelatorError(ValueError):
    """A correlator callback returned a value outside [-1, 1]."""


@dataclass(frozen=True)
class ChshSettings:
    """The four analyzer angles (radians, xz-plane)."""

    a: float
    a_prime: float
    b: float
    b_prime: float


@dataclass(frozen=True)
class ChshReport:
    s_value: float
    bound: float = CLASSICAL_BOUND
    violated: bool = False
    margin: float = 0.0


@dataclass(frozen=True, eq=False)
class AlphaScan:
    """The ladder scan over the grid ``alpha_min + k*step``, held as its
    ``s_ideal`` column (float64) alone.  ``blocks`` derives ``alpha``,
    ``s_exp`` (float64) and ``violated`` (bool) a block of rows at a time;
    ``next(scan.blocks(len(scan)))`` gives the whole columns."""

    alpha_min: float
    step: float
    eta_f: float
    s_ideal: np.ndarray

    def __len__(self) -> int:
        return len(self.s_ideal)

    def _alpha(self, lo: int, hi: int) -> np.ndarray:
        alpha = np.arange(lo, hi, dtype=np.float64)
        return np.add(np.multiply(alpha, self.step, out=alpha), self.alpha_min, out=alpha)

    def blocks(self, rows: int):
        """``[alpha, s_ideal, s_exp, violated]`` of ``rows`` rows at a time."""
        for lo in range(0, len(self), rows):
            s_ideal = self.s_ideal[lo:lo + rows]
            s_exp = self.eta_f * s_ideal
            yield [self._alpha(lo, lo + len(s_ideal)), s_ideal, s_exp, s_exp > CLASSICAL_BOUND + VIOLATION_TOL]


@dataclass(frozen=True)
class ScanSummary:
    alpha_star: float
    s_max: float
    eta_f: float
    s_exp_max: float
    eta_f_critical: float = field(default=CRITICAL_ETA_F)
    violated: bool = False


@dataclass(frozen=True)
class ThresholdReport:
    eta_d: float
    f: float
    eta_f: float
    critical_eta_f: float
    s_exp_max: float
    violated: bool
    margin: float


def ladder_settings(alpha: float) -> ChshSettings:
    """One-parameter angle family with the stated separations.

    Absolute orientation is a gauge choice (correlators depend on angle
    differences only); a' = 0 is fixed, giving (a, a', b, b') =
    (2a, 0, 3a, a) with |a-b| = |a-b'| = |a'-b'| = alpha, |a'-b| = 3*alpha.
    """
    return ChshSettings(a=2.0 * alpha, a_prime=0.0, b=3.0 * alpha, b_prime=alpha)


def _checked(correlator: Callable[[float, float], float], x: float, y: float) -> float:
    value = correlator(x, y)
    if not (-1.0 - 1e-9 <= value <= 1.0 + 1e-9):
        raise InvalidCorrelatorError(
            f"correlator({x!r}, {y!r}) = {value!r} outside [-1, 1]"
        )
    return value


def chsh_value(correlator: Callable[[float, float], float], s: ChshSettings) -> ChshReport:
    """Evaluate |E(a,b) + E(a,b') + E(a',b') - E(a',b)| for a correlator."""
    total = (
        _checked(correlator, s.a, s.b)
        + _checked(correlator, s.a, s.b_prime)
        + _checked(correlator, s.a_prime, s.b_prime)
        - _checked(correlator, s.a_prime, s.b)
    )
    s_value = abs(total)
    return ChshReport(
        s_value=s_value,
        bound=CLASSICAL_BOUND,
        violated=s_value > CLASSICAL_BOUND + VIOLATION_TOL,
        margin=s_value - CLASSICAL_BOUND,
    )


def s_ideal_closed(alpha: float) -> float:
    """|3 cos(alpha) - cos(3*alpha)| = |c (6 - 4c^2)|, c = cos(alpha): the
    ladder CHSH value at unit detection, at most 2*sqrt(2) up to rounding."""
    c = math.cos(alpha)
    return abs(c * (6.0 - 4.0 * c * c))


def _parabolic_polish(f: Callable[[float], float], x0: float, h: float,
                      lo: float, hi: float) -> float:
    """One parabolic-vertex step around x0; falls back to x0 if ill-posed.

    Pure value comparisons cannot localize a quadratic maximum much below
    ~sqrt(eps), so golden-section alone stalls near 1e-8; the three-point
    vertex formula recovers ~1e-11.
    """
    if x0 - h < lo or x0 + h > hi:
        return x0
    fm, f0, fp = f(x0 - h), f(x0), f(x0 + h)
    denom = fm - 2.0 * f0 + fp
    if denom >= 0.0:  # not locally concave, leave the bracket result alone
        return x0
    step = 0.5 * h * (fm - fp) / denom
    if abs(step) > h:
        return x0
    return x0 + step


def _refine_max(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Locate the maximizer of a smooth unimodal f on [lo, hi] to ~1e-10."""
    if hi <= lo:
        return lo
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    width = math.inf
    # beyond about 1e11 an ulp of alpha exceeds 2e-5: stop once the bracket stops shrinking
    while width > (b - a) > 2e-5:
        width = b - a
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x0 = 0.5 * (a + b)
    return min(max(_parabolic_polish(f, x0, 1e-5, lo, hi), lo), hi)


def scan_alpha(
    alpha_min: float,
    alpha_max: float,
    step: float,
    eta_f: float = 1.0,
) -> tuple[AlphaScan, ScanSummary]:
    """Tabulate the ladder CHSH value and refine its maximizer.

    Rows cover alpha_min, alpha_min + step, ... up to alpha_max.  Each
    column applies the operations of the scalar route (``alpha_min +
    k*step``, ``s_ideal_closed``, ``eta_f*s``) in the same order, one
    cosine a row, so it matches that route bit for bit wherever numpy's
    cos agrees with ``math.cos`` (the tests check this).  The returned summary
    refines the grid argmax by golden section plus a parabolic polish;
    grid ties (the ladder has equal-height peaks) are broken toward the
    smallest alpha, and ``s_max`` is never more than 1e-9 below the
    grid's largest ``s_ideal``.  Raises ValueError, before allocating
    anything, for non-finite arguments, an empty range, a step that is not
    positive, more than ``MAX_SCAN_ROWS`` rows or a last grid alpha that
    overflows.
    """
    alpha_min, alpha_max, step = float(alpha_min), float(alpha_max), float(step)
    for name, value in (("alpha_min", alpha_min), ("alpha_max", alpha_max), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    if alpha_max < alpha_min:
        raise ValueError("empty scan range: alpha_max < alpha_min")
    span = (alpha_max - alpha_min) / step
    if not math.isfinite(span):
        raise ValueError(f"(alpha_max - alpha_min) / step overflows: {span!r}")
    n = int(math.floor(span + 1e-9)) + 1
    if n > MAX_SCAN_ROWS:
        raise ValueError(
            f"scan of {n} rows exceeds the limit of {MAX_SCAN_ROWS}; "
            "use a larger step or a shorter range"
        )
    # the grid's last alpha as numpy computes it below; every k*step before it is finite too
    if not math.isfinite((n - 1) * step + alpha_min):
        raise ValueError(f"alpha_max {alpha_max!r} is out of range: the grid's last alpha overflows")
    # a chunk at a time, so the one column is all that grows with n; 4*(c*c)
    # has the bits of the scalar route's (4*c)*c, since scaling by 4 is exact
    scan = AlphaScan(alpha_min, step, eta_f, np.empty(n))
    for lo in range(0, n, SCAN_CHUNK):
        c, s_ideal = scan._alpha(lo, min(lo + SCAN_CHUNK, n)), scan.s_ideal[lo:lo + SCAN_CHUNK]
        np.cos(c, out=c)
        np.multiply(c, c, out=s_ideal)
        s_ideal *= -4.0
        s_ideal += 6.0
        np.abs(np.multiply(c, s_ideal, out=s_ideal), out=s_ideal)
        del c  # before the next chunk's is made

    s_ideal = scan.s_ideal
    grid_max = s_ideal.max()
    tie_tol = max(4.0 * step * step, 1e-12)
    first = int(np.argmax(s_ideal >= grid_max - tie_tol))

    def refined(k: int) -> float:  # between the grid alphas beside row k, as ``blocks`` has them
        lo, hi = max(k - 1, 0), min(k + 1, n - 1)
        return _refine_max(s_ideal_closed, lo * step + alpha_min, hi * step + alpha_min)

    alpha_star = refined(first)
    # where the polish is skipped at a bracket edge, the refinement ends up to
    # 1e-5 from a peak, about 3e-10 below it; further below the grid maximum,
    # the tie tolerance (wide on a coarse grid) picked a row whose bracket
    # misses the peak, or the maximum lies on the range's edge: climb to the
    # next local maximum of the grid and refine there, else take that row,
    # else the grid's maximum row
    if s_ideal_closed(alpha_star) < grid_max - 1e-9:
        top = first
        while top + 1 < n and s_ideal[top + 1] > s_ideal[top]:
            top += 1
        tops = (refined(top), top * step + alpha_min, int(np.argmax(s_ideal)) * step + alpha_min)
        alpha_star = next((x for x in tops if s_ideal_closed(x) >= grid_max - 1e-9), tops[-1])
    s_max = s_ideal_closed(alpha_star)
    s_exp_max = eta_f * s_max
    summary = ScanSummary(
        alpha_star=alpha_star,
        s_max=s_max,
        eta_f=eta_f,
        s_exp_max=s_exp_max,
        violated=s_exp_max > CLASSICAL_BOUND + VIOLATION_TOL,
    )
    return scan, summary


def threshold_analysis(eta_d: float, f: float) -> ThresholdReport:
    """Detection threshold: violation is possible iff eta_d*F > 1/sqrt(2).

    The maximal measured CHSH value is eta_d*F*2*sqrt(2); equality with the
    classical bound (eta_d*F exactly 1/sqrt(2)) counts as no violation.
    """
    for name, value in (("eta_d", eta_d), ("f", f)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    eta_f = eta_d * f
    s_exp_max = eta_f * S_IDEAL_MAX
    return ThresholdReport(
        eta_d=eta_d,
        f=f,
        eta_f=eta_f,
        critical_eta_f=CRITICAL_ETA_F,
        s_exp_max=s_exp_max,
        violated=s_exp_max > CLASSICAL_BOUND + VIOLATION_TOL,
        margin=s_exp_max - CLASSICAL_BOUND,
    )

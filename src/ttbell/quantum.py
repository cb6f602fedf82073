"""Quantum statistics of two sequential spin measurements on one particle.

A spin-1/2 particle is emitted polarized along x, analyzed along angle ``a``
(xz-plane, measured from the z-axis) at the first time slot and along ``b``
at the second.  With outcomes A, B = +/-1 the joint distribution is

    P(A, B | a, b) = (1/4) (1 + A sin a) [1 + A B cos(a - b)]

which ``probability_columns`` evaluates in that closed form, with both
marginals and the conditional, elementwise over numpy arrays.  It is the one
route to a quantum probability: the table, the Monte Carlo thresholds and
the fixed-setting LHV reproducer all read it, the four outcome pairs of one
setting pair as the rows of ``ROW_OUTCOMES``.  The scalar closed forms, one
value at a time, and the route composed from squared overlaps of the
explicit spin states, which the tests check this one against, live in
``tests/quantum_oracle.py``.

All functions are pure; angles are radians, restricted to the xz-plane.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

OUTCOMES = (1, -1)
PROB_TOL = 1e-12
# A and B of the four outcome pairs (A, B) of one setting pair, in OUTCOMES
# order: (+1, +1), (+1, -1), (-1, +1), (-1, -1)
ROW_OUTCOMES = np.array(list(itertools.product(OUTCOMES, repeat=2))).T
ROW_OUTCOMES.setflags(write=False)


def _check_outcome(value: int, name: str = "outcome") -> int:
    if value not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")
    return value


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of the four (A, B) outcome pairs of one run."""

    pp: float  # A=+1, B=+1
    pm: float  # A=+1, B=-1
    mp: float  # A=-1, B=+1
    mm: float  # A=-1, B=-1

    def prob(self, a_outcome: int, b_outcome: int) -> float:
        _check_outcome(a_outcome, "A")
        _check_outcome(b_outcome, "B")
        if a_outcome == 1:
            return self.pp if b_outcome == 1 else self.pm
        return self.mp if b_outcome == 1 else self.mm

    def items(self):
        yield (1, 1), self.pp
        yield (1, -1), self.pm
        yield (-1, 1), self.mp
        yield (-1, -1), self.mm


@dataclass(frozen=True)
class Moments:
    """First and second dichotomic moments of a two-time run.

    ``mean_t2`` is the second-slot mean for a *given* first-slot setting
    (the first analyzer re-prepares the spin, so it enters even without
    conditioning on the first outcome).
    """

    mean_t1: float
    mean_t2: float
    correlator: float


def _clamp_probabilities(p):
    """Snap float noise at the edges of [0, 1], in place: values within
    ``PROB_TOL`` outside it are rounding dust and are clamped; the first
    value beyond it indicates a logic error and raises; NaN passes."""
    outside = (p < -PROB_TOL) | (p > 1.0 + PROB_TOL)
    if outside.any():
        raise ValueError(
            f"probability {float(p[outside][0])!r} outside [0, 1] beyond tolerance {PROB_TOL}"
        )
    p[p < 0.0] = 0.0
    p[p > 1.0] = 1.0
    return p


def _math_map(f, x: np.ndarray) -> np.ndarray:
    """``f`` from ``math`` at each element of ``x``, in its shape."""
    return np.array(list(map(f, x.ravel().tolist())), dtype=np.float64).reshape(x.shape)


def probability_columns(a, b, a_outcome, b_outcome):
    """The joint P(A, B | a, b), the marginals P(A | a) and
    P(B | a, b) = (1/2)[1 + B sin a cos(a - b)], and the conditional
    P(B | a, b, A) = (1/2)[1 + A B cos(a - b)], elementwise over numpy arrays
    of the outcomes A, B (integers +1 or -1) broadcast against the setting
    pairs: a and b are finite floats or arrays of one shape.

    sin a and cos(a - b) are taken with ``math``, once per setting pair, and
    each value is computed operation for operation as the scalar references
    ``quantum_joint``, ``marginal_t1``, ``marginal_t2`` and
    ``conditional_t2`` of ``tests/quantum_oracle.py`` compute it, so it has
    the scalar bits.  The conditional is the formula's value even where
    P(A | a) is 0 and it is undefined; a caller that prints it there decides
    what to print.  Raises ValueError when a - b overflows for some pair.
    Returns the arrays (joint, marginal_t1, marginal_t2, conditional_t2).
    """
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        a_minus_b = a - np.asarray(b, dtype=np.float64)
    if not np.isfinite(a_minus_b).all():
        raise ValueError("--a and --b are too far apart: a - b overflows for some pair")
    sin_a, cos_ab = _math_map(math.sin, a), _math_map(math.cos, a_minus_b)
    ab = a_outcome * b_outcome
    p_t1 = _clamp_probabilities(0.5 * (1.0 + a_outcome * sin_a))
    joint = _clamp_probabilities(0.25 * (1.0 + a_outcome * sin_a) * (1.0 + ab * cos_ab))
    p_t2 = _clamp_probabilities(0.5 * (1.0 + b_outcome * sin_a * cos_ab))
    conditional = _clamp_probabilities(0.5 * (1.0 + ab * cos_ab))
    return joint, p_t1, p_t2, conditional

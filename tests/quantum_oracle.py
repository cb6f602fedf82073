"""Scalar references, amplitude oracle and moment identities of the quantum
model, for the tests.

``ttbell.quantum.probability_columns`` evaluates the closed forms over
arrays.  Here they are evaluated one value at a time: the joint, both
marginals and the conditional, each clamped by ``clamp_probability``, in
the very operations whose bits the array route has.  The joint is composed
too from squared overlaps of explicit real spinors in the sigma_z basis,
|<psi0|phi_A(a)>|^2 |<phi_A(a)|phi_B(b)>|^2, so the tests can check the
closed form against an independent route.  The dichotomic-moment
identities that the hidden-variable analysis rests on are kept here too,
each assembled from the marginals and the joint.
"""

import math

from ttbell.quantum import OUTCOMES, PROB_TOL, JointDistribution, Moments, _check_outcome


def clamp_probability(p: float) -> float:
    """Snap float noise at the edges of [0, 1]; reject anything worse.

    Values in [-PROB_TOL, 0) and (1, 1+PROB_TOL] are rounding dust and are
    clamped; excursions beyond PROB_TOL indicate a logic error and raise.
    """
    if -PROB_TOL <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + PROB_TOL:
        return 1.0
    if p < 0.0 or p > 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1] beyond tolerance {PROB_TOL}")
    return p


def quantum_joint(a: float, b: float) -> JointDistribution:
    """Joint distribution of (A, B) for settings (a, b), in closed form."""
    sa = math.sin(a)
    c = math.cos(a - b)
    return JointDistribution(*(
        clamp_probability(0.25 * (1.0 + A * sa) * (1.0 + A * B * c)) for A in OUTCOMES for B in OUTCOMES
    ))


def marginal_t1(a: float, a_outcome: int) -> float:
    """P(A | a) = (1/2)(1 + A sin a); the b-sum of the joint."""
    _check_outcome(a_outcome, "A")
    return clamp_probability(0.5 * (1.0 + a_outcome * math.sin(a)))


class UndefinedConditionalError(ValueError):
    """Conditioning event has zero (or non-positive) probability."""


def marginal_t2(a: float, b: float, b_outcome: int) -> float:
    """P(B | a, b) = (1/2)[1 + B sin a cos(a - b)], regardless of A.

    Depends on the *first* setting: the second-slot statistics remember the
    re-preparation at the first analyzer.
    """
    _check_outcome(b_outcome, "B")
    return clamp_probability(0.5 * (1.0 + b_outcome * math.sin(a) * math.cos(a - b)))


def conditional_t2(a: float, b: float, a_outcome: int, b_outcome: int) -> float:
    """P(B | a, b, A) = (1/2)[1 + A B cos(a - b)].

    Defined only when the first-slot outcome has nonzero probability.
    """
    _check_outcome(a_outcome, "A")
    _check_outcome(b_outcome, "B")
    if marginal_t1(a, a_outcome) == 0.0:
        raise UndefinedConditionalError(
            f"P(A={a_outcome:+d} | a={a!r}) = 0; conditional at t2 undefined"
        )
    return clamp_probability(0.5 * (1.0 + a_outcome * b_outcome * math.cos(a - b)))


SOURCE = (math.sqrt(0.5), math.sqrt(0.5))  # polarized along +x


def spinor(theta, sign):
    """Eigenstate of the spin component along theta with eigenvalue sign:
    +1 is (cos t/2, sin t/2), -1 is (-sin t/2, cos t/2)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return (c, s) if sign == 1 else (-s, c)


def overlap(psi, phi):
    """|<psi|phi>|^2 of two real spinors."""
    return abs(psi[0] * phi[0] + psi[1] * phi[1]) ** 2


def brute_joint(a, b, A, B):
    """P(A, B | a, b): squared overlaps multiplied by hand."""
    phi_a = spinor(a, A)
    return overlap(SOURCE, phi_a) * overlap(phi_a, spinor(b, B))


def ideal_correlator(a: float, b: float) -> float:
    """<sigma_a sigma_b> = cos(a - b) for perfect detection."""
    return math.cos(a - b)


def quantum_moments(a: float, b: float) -> Moments:
    """The three dichotomic moments of the joint at (a, b)."""
    return Moments(
        mean_t1=math.sin(a),
        mean_t2=math.sin(a) * math.cos(a - b),
        correlator=ideal_correlator(a, b),
    )


def conditional_from_moments(m: Moments, a_outcome: int, b_outcome: int) -> float:
    """Conditional P(B | A) reconstructed from dichotomic moments.

    For observables valued +/-1,
        P(B|A) = (1/2) [1 + (B m2 + A B m12) / (1 + A m1)].
    Raises when the conditioning weight 1 + A m1 is not positive.
    """
    _check_outcome(a_outcome, "A")
    _check_outcome(b_outcome, "B")
    denom = 1.0 + a_outcome * m.mean_t1
    if denom <= 0.0:
        raise UndefinedConditionalError(
            f"1 + A<t1-mean> = {denom!r} is not positive; conditional undefined"
        )
    num = b_outcome * m.mean_t2 + a_outcome * b_outcome * m.correlator
    return clamp_probability(0.5 * (1.0 + num / denom))


def t2_mean_identity(a: float, b: float) -> tuple[float, float]:
    """Both sides of <sigma_b>_a = <sigma_a><sigma_a sigma_b>.

    The left side is the t2 mean read off the t2 marginal, the right side
    the product of the t1 mean and the correlator, each assembled from its
    own route through the distributions.  For this preparation they agree
    identically in (a, b).
    """
    lhs = sum(B * marginal_t2(a, b, B) for B in OUTCOMES)
    mean_t1 = sum(A * marginal_t1(a, A) for A in OUTCOMES)
    j = quantum_joint(a, b)
    rhs = mean_t1 * (j.pp - j.pm - j.mp + j.mm)
    return lhs, rhs

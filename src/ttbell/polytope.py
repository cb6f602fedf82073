"""Local-polytope membership certificates for four two-setting correlators.

A deterministic strategy assigns fixed outcomes (A_a, A_a', B_b, B_b') in
{+1,-1}^4; its correlator vector is (A_a*B_b, A_a*B_b', A_a'*B_b',
A_a'*B_b).  A target vector of four correlators admits a local model iff
it is a convex mixture of the 16 strategy vectors.  For correlators in
[-1,1]^4 this holds iff every signed CHSH combination with an odd number
of minus signs stays at or below 2 (those eight combinations are the
nontrivial facets of the correlator polytope).

The facet scan decides membership.  Feasible targets come with explicit
weights as a certificate: the 8 distinct strategy vectors are the
vertices of a cross-polytope, and its triangulation around the +++- / ++-+
diagonal gives every point inside it weights in closed form.  Infeasible
targets come with their largest facet, which is violated, and its gap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .chsh import CLASSICAL_BOUND

FEASIBILITY_TOL = 1e-9

Strategy = tuple[int, int, int, int]  # (A_a, A_a', B_b, B_b')

STRATEGIES: tuple[Strategy, ...] = tuple(itertools.product((1, -1), repeat=4))

# sign patterns with an odd number of -1: the nontrivial facet normals
FACET_SIGNS: tuple[tuple[int, int, int, int], ...] = tuple(
    signs for signs in itertools.product((1, -1), repeat=4) if signs[0] * signs[1] * signs[2] * signs[3] == -1
)


_FACETS = tuple((signs, *signs) for signs in FACET_SIGNS)


def strategy_label(s: Strategy) -> str:
    return "".join("+" if v == 1 else "-" for v in s)


@dataclass(frozen=True)
class PolytopeCertificate:
    """Feasibility, the gap past 2, and the largest facet (signs and value)
    of four correlators, which is violated if they are infeasible; the
    weights if feasible."""

    feasible: bool
    gap: float
    max_facet: tuple[tuple[int, int, int, int], float]
    weights: Optional[dict[Strategy, float]] = None


def facet_values(targets: Sequence[float]) -> list[tuple[tuple[int, int, int, int], float]]:
    """All eight signed CHSH combinations of the targets, each summed left
    to right from 0.0."""
    t0, t1, t2, t3 = targets
    return [(signs, 0.0 + e0 * t0 + e1 * t1 + e2 * t2 + e3 * t3) for signs, e0, e1, e2, e3 in _FACETS]


def _closed_weights(targets: Sequence[float]) -> dict[Strategy, float]:
    """Nonnegative strategy weights matching targets the facet scan accepts.

    The 16 strategies give 8 correlator vectors, +-u_k for the orthogonal
    axes u0 = (1,-1,-1,1) (+++- at +u0, ++-+ at -u0), u1 = (1,1,1,1)
    (++++ / ++--), u2 = (1,1,-1,-1) (+-++ / +---) and u3 = (1,-1,1,-1)
    (+-+- / +--+).  With c_k = u_k.t/4 the targets are t = sum_k c_k u_k,
    and the largest facet value is 2 * sum_k |c_k|.  Weight |c_k| goes on
    the strategy at sign(c_k) u_k for k = 1..3, and the remainder
    r = 1 - |c1| - |c2| - |c3| is split along u0 as (r + c0)/2 on +++- and
    (r - c0)/2 on ++-+: the simplex of the cross-polytope's triangulation
    around the +++- / ++-+ diagonal that holds t.  A target up to
    ``FEASIBILITY_TOL`` past a facet leaves one half negative; it is
    clamped to 0.
    """
    t0, t1, t2, t3 = targets
    weights = dict.fromkeys(STRATEGIES, 0.0)
    r = 1.0
    for c, plus, minus in (
        ((t0 + t1 + t2 + t3) / 4.0, (1, 1, 1, 1), (1, 1, -1, -1)),
        ((t0 + t1 - t2 - t3) / 4.0, (1, -1, 1, 1), (1, -1, -1, -1)),
        ((t0 - t1 + t2 - t3) / 4.0, (1, -1, 1, -1), (1, -1, -1, 1)),
    ):
        weights[plus if c >= 0.0 else minus] = abs(c)
        r -= abs(c)
    c0 = (t0 - t1 - t2 + t3) / 4.0
    weights[(1, 1, 1, -1)] = max(0.0, (r + c0) / 2.0)
    weights[(1, 1, -1, 1)] = max(0.0, (r - c0) / 2.0)
    return weights


def polytope_check(targets: Sequence[float]) -> PolytopeCertificate:
    """Decide local-polytope membership of four correlators, with certificate.

    The facet scan decides: the targets are feasible when no facet exceeds
    2 by more than ``FEASIBILITY_TOL``.  Every certificate carries the
    largest facet and the gap, and a feasible one the closed-form strategy
    weights.
    """
    targets = tuple(float(t) for t in targets)
    if len(targets) != 4:
        raise ValueError(f"need exactly four correlators, got {len(targets)}")
    for t in targets:
        if not -1.0 <= t <= 1.0:
            raise ValueError(f"correlator {t!r} outside [-1, 1]")

    facets = facet_values(targets)
    worst = max(facets, key=lambda sv: sv[1])
    feasible = worst[1] <= CLASSICAL_BOUND + FEASIBILITY_TOL
    gap = max(worst[1] - CLASSICAL_BOUND, 0.0)

    weights = _closed_weights(targets) if feasible else None
    return PolytopeCertificate(feasible=feasible, gap=gap, max_facet=worst, weights=weights)
